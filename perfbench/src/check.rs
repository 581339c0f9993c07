//! The output check every response passes: the body echoes its request,
//! `partition` has length n, and recounting the partition's cut on the
//! regenerated graph gives `best_cut`.

use crate::workloads::Request;
use snc_experiments::json::{self, Json};
use snc_graph::generators::erdos_renyi::gnp;
use snc_graph::{CutAssignment, Graph};
use std::collections::hash_map::{Entry, HashMap};

/// What a checked body reports.
#[derive(Clone, Copy, Debug)]
pub struct Checked {
    /// `best_cut / m`.
    pub cut_fraction: f64,
    /// The first trace checkpoint that reaches the final best cut.
    pub samples_to_best: u64,
}

/// Regenerated request graphs, built once each.
#[derive(Default)]
pub struct Graphs(HashMap<(usize, u64, u64), Graph>);

impl Graphs {
    pub fn get(&mut self, req: &Request) -> Result<&Graph, String> {
        match self.0.entry((req.n, req.p.to_bits(), req.graph_seed)) {
            Entry::Occupied(graph) => Ok(graph.into_mut()),
            Entry::Vacant(slot) => {
                let graph = gnp(req.n, req.p, req.graph_seed).map_err(|e| format!("gnp: {e}"))?;
                Ok(slot.insert(graph))
            }
        }
    }
}

fn count(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("body has no count `{key}`"))
}

fn expect_eq(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} is {got}, expected {want}"))
    }
}

/// Checks one response body against its request.
pub fn check(body: &[u8], req: &Request, graphs: &mut Graphs) -> Result<Checked, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let circuit = doc.get("circuit").and_then(Json::as_str);
    if circuit != Some(req.family.name()) {
        return Err(format!(
            "circuit is {circuit:?}, expected {}",
            req.family.name()
        ));
    }
    let graph = graphs.get(req)?;
    expect_eq("n", count(&doc, "n")?, graph.n() as u64)?;
    expect_eq("m", count(&doc, "m")?, graph.m() as u64)?;
    expect_eq("seed", count(&doc, "seed")?, req.seed)?;
    expect_eq("budget", count(&doc, "budget")?, req.budget)?;
    let best_cut = count(&doc, "best_cut")?;
    let partition = doc
        .get("partition")
        .and_then(Json::as_array)
        .ok_or("body has no `partition` array")?;
    expect_eq("partition length", partition.len() as u64, graph.n() as u64)?;
    let sides = partition
        .iter()
        .map(|side| match side.as_u64() {
            Some(0) => Ok(-1),
            Some(1) => Ok(1),
            _ => Err("partition entries must be 0 or 1".to_string()),
        })
        .collect::<Result<Vec<i8>, String>>()?;
    expect_eq(
        "recounted cut",
        CutAssignment::from_sides(sides).cut_value(graph),
        best_cut,
    )?;

    let trace = doc.get("trace").ok_or("body has no `trace`")?;
    let numbers = |key: &str| -> Result<Vec<u64>, String> {
        trace
            .get(key)
            .and_then(Json::as_array)
            .and_then(|items| items.iter().map(Json::as_u64).collect())
            .ok_or_else(|| format!("trace has no `{key}` counts"))
    };
    let (checkpoints, best) = (numbers("checkpoints")?, numbers("best")?);
    expect_eq("trace length", best.len() as u64, checkpoints.len() as u64)?;
    let reached = best
        .iter()
        .position(|&b| b == best_cut)
        .ok_or("trace never reaches best_cut")?;
    expect_eq(
        "trace final best",
        *best.last().expect("trace reaches best_cut"),
        best_cut,
    )?;
    Ok(Checked {
        cut_fraction: best_cut as f64 / graph.m() as f64,
        samples_to_best: checkpoints[reached],
    })
}
