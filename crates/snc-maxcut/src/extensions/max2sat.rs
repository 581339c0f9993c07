//! MAX2SAT via the Goemans–Williamson SDP (§VI extension).
//!
//! For a clause `(l_i ∨ l_j)` with literal signs `a, b ∈ {±1}` (positive
//! literal = +1), the satisfaction indicator over `x ∈ {±1}`
//! (`x = +1` ⇔ true) is
//!
//! ```text
//! 1 − (1 − a·x_i)(1 − b·x_j)/4 = (3 + a·x_i + b·x_j − ab·x_i x_j)/4
//! ```
//!
//! Relaxing `x_i → ⟨v₀, v_i⟩` and `x_i x_j → ⟨v_i, v_j⟩` yields a linear
//! function of inner products — the GW MAX2SAT SDP with approximation
//! ratio 0.878. Rounding: draw a random Gaussian, threshold, and set
//! `x_i = sign_i · sign_0`.

use snc_devices::{Rng64, Xoshiro256pp};
use snc_linalg::{sdp, GaussianSampler, LinalgError, SdpConfig};

/// A literal: variable index plus polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Literal {
    /// Variable index (0-based).
    pub var: u32,
    /// Whether the literal is negated.
    pub negated: bool,
}

impl Literal {
    /// A positive literal.
    pub fn pos(var: u32) -> Self {
        Self {
            var,
            negated: false,
        }
    }

    /// A negative literal.
    pub fn neg(var: u32) -> Self {
        Self { var, negated: true }
    }

    /// The ±1 polarity sign.
    fn sign(&self) -> f64 {
        if self.negated {
            -1.0
        } else {
            1.0
        }
    }

    /// Evaluates under a boolean assignment.
    fn eval(&self, assignment: &[bool]) -> bool {
        assignment[self.var as usize] != self.negated
    }
}

/// A 1- or 2-literal clause with a non-negative weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Clause {
    /// First literal.
    pub a: Literal,
    /// Optional second literal (absent = unit clause).
    pub b: Option<Literal>,
    /// Clause weight.
    pub weight: f64,
}

/// A MAX2SAT instance.
#[derive(Clone, Debug, Default)]
pub struct Max2Sat {
    /// Number of boolean variables.
    pub n_vars: usize,
    /// The clause list.
    pub clauses: Vec<Clause>,
}

impl Max2Sat {
    /// Total satisfied weight under an assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `n_vars`.
    pub fn value(&self, assignment: &[bool]) -> f64 {
        assert_eq!(assignment.len(), self.n_vars);
        self.clauses
            .iter()
            .filter(|c| c.a.eval(assignment) || c.b.is_some_and(|b| b.eval(assignment)))
            .map(|c| c.weight)
            .sum()
    }

    /// Total clause weight (the trivial upper bound).
    pub fn total_weight(&self) -> f64 {
        self.clauses.iter().map(|c| c.weight).sum()
    }

    /// Exact optimum by enumeration (for `n_vars ≤ 24`).
    ///
    /// # Panics
    ///
    /// Panics for more than 24 variables.
    pub fn brute_force(&self) -> (Vec<bool>, f64) {
        assert!(self.n_vars <= 24, "brute force limited to 24 variables");
        let mut best = (vec![false; self.n_vars], f64::NEG_INFINITY);
        for mask in 0u32..(1u32 << self.n_vars) {
            let assignment: Vec<bool> = (0..self.n_vars).map(|i| (mask >> i) & 1 == 1).collect();
            let v = self.value(&assignment);
            if v > best.1 {
                best = (assignment, v);
            }
        }
        best
    }

    /// A random instance with unit weights: each clause picks two distinct
    /// variables and random polarities.
    pub fn random(n_vars: usize, n_clauses: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::new(seed);
        let clauses = (0..n_clauses)
            .map(|_| {
                let i = rng.next_index(n_vars) as u32;
                let mut j = rng.next_index(n_vars) as u32;
                while j == i && n_vars > 1 {
                    j = rng.next_index(n_vars) as u32;
                }
                Clause {
                    a: Literal {
                        var: i,
                        negated: rng.next_bool(0.5),
                    },
                    b: Some(Literal {
                        var: j,
                        negated: rng.next_bool(0.5),
                    }),
                    weight: 1.0,
                }
            })
            .collect();
        Self { n_vars, clauses }
    }
}

/// Result of the GW MAX2SAT pipeline.
#[derive(Clone, Debug)]
pub struct Max2SatSolution {
    /// The best assignment found.
    pub assignment: Vec<bool>,
    /// Its satisfied weight.
    pub value: f64,
    /// The SDP upper bound on the optimum.
    pub sdp_bound: f64,
}

/// Solves MAX2SAT by the GW SDP + Gaussian rounding, keeping the best of
/// `samples` rounded assignments.
///
/// # Errors
///
/// Propagates SDP solver errors.
pub fn solve_gw_max2sat(
    inst: &Max2Sat,
    cfg: &SdpConfig,
    samples: usize,
    seed: u64,
) -> Result<Max2SatSolution, LinalgError> {
    let n = inst.n_vars;
    let v0 = n as u32; // the truth-direction vector
    let mut couplings: Vec<sdp::Coupling> = Vec::with_capacity(3 * inst.clauses.len());
    // Constant part of the objective, accumulated so the SDP energy can be
    // mapped back to a satisfied-weight bound.
    let mut constant = 0.0;
    for c in &inst.clauses {
        let w = c.weight;
        let a = c.a.sign();
        match c.b {
            Some(b) => {
                let bs = b.sign();
                // (3 + a·x_i + b·x_j − ab·x_i x_j)/4, maximize ⇒ minimize
                // −(w a/4)⟨v0,vi⟩ − (w b/4)⟨v0,vj⟩ + (w ab/4)⟨vi,vj⟩.
                constant += 3.0 * w / 4.0;
                couplings.push(sdp::Coupling {
                    i: v0,
                    j: c.a.var,
                    w: -w * a / 4.0,
                });
                couplings.push(sdp::Coupling {
                    i: v0,
                    j: b.var,
                    w: -w * bs / 4.0,
                });
                if c.a.var != b.var {
                    couplings.push(sdp::Coupling {
                        i: c.a.var,
                        j: b.var,
                        w: w * a * bs / 4.0,
                    });
                } else {
                    // Same variable twice: x_i x_i = 1 folds into the constant.
                    constant -= w * a * bs / 4.0;
                }
            }
            None => {
                // (1 + a·x_i)/2 ⇒ minimize −(w a/2)⟨v0,vi⟩.
                constant += w / 2.0;
                couplings.push(sdp::Coupling {
                    i: v0,
                    j: c.a.var,
                    w: -w * a / 2.0,
                });
            }
        }
    }
    let sol = sdp::solve_weighted_sdp(n + 1, &couplings, cfg)?;
    let sdp_bound = constant - sol.energy;

    // Rounding.
    let mut gauss = GaussianSampler::new(seed);
    let mut g = vec![0.0; sol.factors.cols()];
    let mut x = vec![0.0; n + 1];
    let mut best: Option<(Vec<bool>, f64)> = None;
    for _ in 0..samples.max(1) {
        gauss.fill(&mut g);
        sol.factors.matvec_into(&g, &mut x);
        let truth_side = x[n] > 0.0;
        let assignment: Vec<bool> = (0..n).map(|i| (x[i] > 0.0) == truth_side).collect();
        let value = inst.value(&assignment);
        if best.as_ref().is_none_or(|(_, bv)| value > *bv) {
            best = Some((assignment, value));
        }
    }
    let (assignment, value) = best.expect("at least one sample");
    Ok(Max2SatSolution {
        assignment,
        value,
        sdp_bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SdpConfig {
        SdpConfig {
            rank: 4,
            max_iters: 3000,
            grad_tol: 1e-8,
            restarts: 2,
            seed: 5,
        }
    }

    #[test]
    fn clause_evaluation() {
        let inst = Max2Sat {
            n_vars: 2,
            clauses: vec![
                Clause {
                    a: Literal::pos(0),
                    b: Some(Literal::neg(1)),
                    weight: 1.0,
                },
                Clause {
                    a: Literal::neg(0),
                    b: None,
                    weight: 2.0,
                },
            ],
        };
        assert_eq!(inst.value(&[true, true]), 1.0); // clause 1 only
        assert_eq!(inst.value(&[false, false]), 3.0); // both
        assert_eq!(inst.total_weight(), 3.0);
    }

    #[test]
    fn brute_force_satisfiable_instance() {
        // (x0 ∨ x1) ∧ (¬x0 ∨ x1) ∧ (x0 ∨ ¬x1): satisfied by (T, T).
        let inst = Max2Sat {
            n_vars: 2,
            clauses: vec![
                Clause {
                    a: Literal::pos(0),
                    b: Some(Literal::pos(1)),
                    weight: 1.0,
                },
                Clause {
                    a: Literal::neg(0),
                    b: Some(Literal::pos(1)),
                    weight: 1.0,
                },
                Clause {
                    a: Literal::pos(0),
                    b: Some(Literal::neg(1)),
                    weight: 1.0,
                },
            ],
        };
        let (assignment, v) = inst.brute_force();
        assert_eq!(v, 3.0);
        assert_eq!(assignment, vec![true, true]);
    }

    #[test]
    fn sdp_matches_optimum_on_satisfiable() {
        let inst = Max2Sat {
            n_vars: 3,
            clauses: vec![
                Clause {
                    a: Literal::pos(0),
                    b: Some(Literal::neg(1)),
                    weight: 1.0,
                },
                Clause {
                    a: Literal::pos(1),
                    b: Some(Literal::pos(2)),
                    weight: 1.0,
                },
                Clause {
                    a: Literal::neg(2),
                    b: None,
                    weight: 1.0,
                },
            ],
        };
        let sol = solve_gw_max2sat(&inst, &cfg(), 32, 1).unwrap();
        let (_, opt) = inst.brute_force();
        assert_eq!(sol.value, opt, "value {} opt {opt}", sol.value);
        assert!(sol.sdp_bound + 1e-6 >= opt);
    }

    #[test]
    fn achieves_878_ratio_on_random_instances() {
        for seed in 0..3u64 {
            let inst = Max2Sat::random(10, 30, seed);
            let (_, opt) = inst.brute_force();
            let sol = solve_gw_max2sat(&inst, &cfg(), 64, seed).unwrap();
            let ratio = sol.value / opt;
            assert!(ratio >= 0.878, "seed={seed}: ratio {ratio}");
            assert!(
                sol.sdp_bound + 1e-6 >= opt,
                "bound {} < {opt}",
                sol.sdp_bound
            );
        }
    }

    #[test]
    fn unit_clauses_force_assignment() {
        let inst = Max2Sat {
            n_vars: 2,
            clauses: vec![
                Clause {
                    a: Literal::pos(0),
                    b: None,
                    weight: 5.0,
                },
                Clause {
                    a: Literal::neg(1),
                    b: None,
                    weight: 5.0,
                },
            ],
        };
        let sol = solve_gw_max2sat(&inst, &cfg(), 16, 3).unwrap();
        assert_eq!(sol.assignment, vec![true, false]);
        assert_eq!(sol.value, 10.0);
    }

    #[test]
    fn duplicate_variable_clause_is_handled() {
        // (x0 ∨ x0) behaves like the unit clause x0.
        let inst = Max2Sat {
            n_vars: 1,
            clauses: vec![Clause {
                a: Literal::pos(0),
                b: Some(Literal::pos(0)),
                weight: 1.0,
            }],
        };
        let sol = solve_gw_max2sat(&inst, &cfg(), 8, 4).unwrap();
        assert_eq!(sol.value, 1.0);
        assert_eq!(sol.assignment, vec![true]);
    }
}
