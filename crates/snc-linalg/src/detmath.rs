//! Deterministic elementary functions: the same bits on every target.
//!
//! The platform libm picks its code at load time (glibc's `expm1`, which
//! its `tanh` calls, has a separate FMA variant), so a value it returns
//! can depend on the CPU as well as on the library. The functions here
//! use only `+ − × ÷`, `abs`, `copysign`, `min` and bit operations, each
//! of which IEEE 754 rounds one way, and no fused multiply-add: their
//! bits are a pure function of the argument.
//!
//! Every branch is computed and one is selected, so the compiler
//! vectorizes [`tanh_lanes`] on the target's baseline vector unit.

/// Below this magnitude [`tanh`] takes the odd rational form.
const SMALL: f64 = 0.625;

/// `tanh(22)` rounds to 1; larger magnitudes are clamped here, which
/// also keeps `e^{2|x|}`'s binary exponent in range.
const HUGE: f64 = 22.0;

/// Cephes' `tanh` numerator `P(z)` and monic denominator `Q(z)`, highest
/// degree first: `tanh(x) = x + x·z·P(z)/Q(z)`, `z = x²`, `|x| ≤ 0.625`.
const TANH_P: [f64; 3] = [
    -9.643_991_794_250_523e-1,
    -9.928_772_310_019_186e1,
    -1.614_687_684_417_084_5e3,
];
const TANH_Q: [f64; 3] = [
    1.128_116_784_916_329_3e2,
    2.235_488_390_601_004_6e3,
    4.844_063_053_251_255e3,
];

/// Cephes' `exp` Padé form, highest degree first:
/// `e^r = (Q(r²) + r·P(r²)) / (Q(r²) − r·P(r²))` for `|r| ≤ ½ ln 2`.
const EXP_P: [f64; 3] = [1.261_771_930_748_105_9e-4, 3.029_944_077_074_419_6e-2, 1.0];
const EXP_Q: [f64; 4] = [
    3.001_985_051_386_644_5e-6,
    2.524_483_403_496_841e-3,
    2.272_655_482_081_550_3e-1,
    2.0,
];

/// `ln 2` in two parts; `k · LN2_HI` is exact for `k < 2^28`.
const LN2_HI: f64 = 6.931_457_519_531_25e-1;
const LN2_LO: f64 = 1.428_606_820_309_417_2e-6;

/// Adding `1.5 · 2^52` rounds a value below `2^51` to an integer, which
/// lands in the sum's low mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// The hyperbolic tangent, within 2 ulp of a correctly rounded one.
///
/// `tanh(±0) = ±0`, `tanh(±∞) = ±1`, `tanh(NaN)` is NaN, and
/// `|x| ≥ 22` gives `±1` exactly. The function is odd bit for bit.
///
/// # Examples
///
/// ```
/// use snc_linalg::detmath::tanh;
///
/// assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
/// assert_eq!(tanh(-30.0), -1.0);
/// assert!((tanh(0.5) - 0.5f64.tanh()).abs() <= 2.0 * f64::EPSILON);
/// ```
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    let a = x.abs();

    // |x| < 0.625: a + a·z·P(z)/Q(z).
    let z = a * a;
    let small_num = a * z * ((TANH_P[0] * z + TANH_P[1]) * z + TANH_P[2]);
    let small_den = ((z + TANH_Q[0]) * z + TANH_Q[1]) * z + TANH_Q[2];

    // Otherwise 1 − 2/(e^{2a} + 1), with e^{2a} = 2^k · e^r and
    // e^r = (q + p)/(q − p): 1 − 2(q − p)/(2^k (q + p) + (q − p)).
    let y = 2.0 * a.min(HUGE);
    let shifted = y * std::f64::consts::LOG2_E + ROUND;
    let k = shifted - ROUND;
    let r = (y - k * LN2_HI) - k * LN2_LO;
    let rr = r * r;
    let p = r * ((EXP_P[0] * rr + EXP_P[1]) * rr + EXP_P[2]);
    let q = ((EXP_Q[0] * rr + EXP_Q[1]) * rr + EXP_Q[2]) * rr + EXP_Q[3];
    // 2^k from k's bits in the low end of `shifted`; 0 ≤ k ≤ 64.
    let two_k = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    let large_num = -2.0 * (q - p);
    let large_den = two_k * (q + p) + (q - p);

    let (base, num, den) = if a < SMALL {
        (a, small_num, small_den)
    } else {
        (1.0, large_num, large_den)
    };
    let t = (base + num / den).copysign(x);
    if x.is_nan() {
        x
    } else {
        t
    }
}

/// [`tanh`] of every lane, bit for bit the scalar form.
#[inline(always)]
pub fn tanh_lanes<const W: usize>(x: [f64; W]) -> [f64; W] {
    x.map(tanh)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in representable doubles between two finite values.
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |v: f64| {
            let bits = v.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        key(a).abs_diff(key(b))
    }

    /// Magnitudes from the smallest subnormal to 30: 2^19 points evenly
    /// spaced in bit pattern (every binade alike) and 2^19 evenly spaced
    /// in value.
    fn grid() -> impl Iterator<Item = f64> {
        const POINTS: u64 = 1 << 19;
        let top = 30.0f64.to_bits();
        let by_bits = (0..POINTS).map(move |i| f64::from_bits(1 + i * ((top - 1) / POINTS)));
        let step = 30.0 / POINTS as f64;
        let by_value = (1..=POINTS).map(move |i| i as f64 * step);
        by_bits.chain(by_value)
    }

    #[test]
    fn within_two_ulp_of_libm() {
        let (mut worst, mut worst_at, mut total) = (0, 0.0, 0);
        for a in grid() {
            for x in [a, -a] {
                let d = ulps(tanh(x), x.tanh());
                if d > worst {
                    (worst, worst_at) = (d, x);
                }
                total += 1;
            }
        }
        assert!(total >= 1_000_000, "{total} points");
        assert!(worst <= 2, "{worst} ulp at {worst_at:e}");
    }

    #[test]
    fn odd_bit_for_bit() {
        for a in grid() {
            assert_eq!(tanh(-a).to_bits(), (-tanh(a)).to_bits(), "at {a:e}");
        }
    }

    #[test]
    fn special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert!(tanh(f64::NAN).is_nan());
        assert!(tanh(-f64::NAN).is_nan());
        let tiny = f64::from_bits(1);
        assert_eq!(tanh(tiny), tiny);
        for x in [22.0, 22.5, 30.0, 710.0, 1e300, f64::MAX] {
            assert_eq!(tanh(x), 1.0, "at {x:e}");
            assert_eq!(tanh(-x), -1.0, "at {x:e}");
        }
        // Both sides of the switch between the two forms.
        for x in [SMALL.next_down(), SMALL, SMALL.next_up()] {
            assert!(ulps(tanh(x), x.tanh()) <= 2, "at {x:e}");
        }
    }

    fn lanes_match_scalar<const W: usize>() {
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let xs: Vec<f64> = specials
            .into_iter()
            .chain(grid().step_by(7).flat_map(|a| [a, -a]))
            .collect();
        let (chunks, _) = xs.as_chunks::<W>();
        for chunk in chunks {
            let lanes = tanh_lanes(*chunk);
            for (x, t) in chunk.iter().zip(lanes) {
                assert_eq!(t.to_bits(), tanh(*x).to_bits(), "W={W} at {x:e}");
            }
        }
    }

    #[test]
    fn lane_form_is_the_scalar_form() {
        lanes_match_scalar::<1>();
        lanes_match_scalar::<2>();
        lanes_match_scalar::<4>();
        lanes_match_scalar::<8>();
    }

    /// FNV-1a over the bits of `tanh` on the grid, both signs: the same
    /// digest on every target.
    #[test]
    fn grid_digest() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for a in grid() {
            for x in [a, -a] {
                for byte in tanh(x).to_bits().to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 0x4be2_be2e_ba16_b29d, "digest {h:#018x}");
    }
}
