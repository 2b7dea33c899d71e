//! The paper's workload: rank every violated candidate of the RWD
//! relations under all 14 measures, then run lattice discovery.

use crate::stats::{median, Metrics};
use crate::Tally;
use afd_core::all_measures;
use afd_discovery::{naive_lattice, LatticeConfig};
use afd_engine::{
    AfdEngine, DiscoverRequest, DiscoverResponse, EngineConfig, MatrixRequest, MatrixResponse,
};
use afd_relation::{violated_candidates, Relation};
use afd_rwd::RwdBenchmark;
use std::hint::black_box;
use std::time::Instant;

const MEASURE: &str = "mu+";
const EPSILON: f64 = 0.9;
const MAX_LHS: usize = 2;
/// Matrix cells per relation re-scored from scratch by the gate.
const SAMPLED_CELLS: usize = 24;

pub struct Rwd {
    relations: Vec<Relation>,
    engines: Vec<AfdEngine>,
    threads: usize,
    /// Seconds per pass, over all rounds.
    rank: Vec<f64>,
    discover: Vec<f64>,
    /// The first pass's responses, for the gates and lattice counters.
    first: Option<Pass>,
    /// Traced: build_tables plus every measure, timed sequentially.
    sequential_s: Option<f64>,
}

fn discover_request() -> DiscoverRequest {
    DiscoverRequest {
        measure: MEASURE.into(),
        epsilon: EPSILON,
        max_lhs: MAX_LHS,
    }
}

/// Sanitised metric name of a measure: `g3'` → `g3p`, `RFI'+` → `rfip_plus`.
pub fn metric_name(measure: &str) -> String {
    measure
        .to_ascii_lowercase()
        .replace('\'', "p")
        .replace('+', "_plus")
}

pub fn setup(scale: f64, seed: u64, threads: usize) -> Result<Rwd, String> {
    let relations: Vec<Relation> = RwdBenchmark::generate_scaled(scale, seed)
        .relations
        .into_iter()
        .map(|r| r.relation)
        .collect();
    let engines = relations
        .iter()
        .map(|rel| {
            AfdEngine::from_relation(rel.clone()).with_config(EngineConfig {
                threads: Some(threads),
                ..EngineConfig::default()
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("rwd engine config: {e}"))?;
    Ok(Rwd {
        relations,
        engines,
        threads,
        rank: Vec::new(),
        discover: Vec::new(),
        first: None,
        sequential_s: None,
    })
}

/// One pass over all relations: seconds spent ranking and discovering,
/// and the responses (kept from the first pass for the gates).
struct Pass {
    rank_s: f64,
    discover_s: f64,
    matrices: Vec<MatrixResponse>,
    discovered: Vec<DiscoverResponse>,
}

fn pass(rwd: &mut Rwd, tally: &mut Tally) -> Pass {
    let mut out = Pass {
        rank_s: 0.0,
        discover_s: 0.0,
        matrices: Vec::new(),
        discovered: Vec::new(),
    };
    for engine in &mut rwd.engines {
        let start = Instant::now();
        let matrix = engine.matrix(&MatrixRequest::default());
        out.rank_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let found = engine.discover(&discover_request());
        out.discover_s += start.elapsed().as_secs_f64();
        tally.op(matrix.is_ok());
        tally.op(found.is_ok());
        if let (Ok(m), Ok(d)) = (matrix, found) {
            out.matrices.push(m);
            out.discovered.push(d);
        }
    }
    out
}

/// Runs passes for `budget_s` (at least one).
pub fn round(rwd: &mut Rwd, budget_s: f64, tally: &mut Tally) {
    let start = Instant::now();
    loop {
        let p = pass(rwd, tally);
        rwd.rank.push(p.rank_s);
        rwd.discover.push(p.discover_s);
        let per_pass = p.rank_s + p.discover_s;
        rwd.first.get_or_insert(p);
        if start.elapsed().as_secs_f64() + per_pass > budget_s {
            return;
        }
    }
}

/// Checks the first pass's outputs and records `rank_s` / `discover_s`
/// as medians over passes (plus, traced, the lattice counters and the
/// parallel efficiency).
pub fn finish(rwd: &Rwd, seed: u64) -> Result<Metrics, String> {
    let first = rwd.first.as_ref().expect("at least one round ran");
    check(rwd, first, seed)?;
    let mut m = Metrics::default();
    let rank_s = median(&rwd.rank);
    m.put("rank_s", rank_s, "s");
    m.put("discover_s", median(&rwd.discover), "s");
    m.samples.insert("rank_s".into(), (rwd.rank.len(), 1));
    m.samples
        .insert("discover_s".into(), (rwd.discover.len(), 1));
    if let Some(sequential) = rwd.sequential_s {
        m.put(
            "parallel.efficiency",
            sequential / (rwd.threads as f64 * rank_s),
            "ratio",
        );
        lattice_counters(&mut m, first);
    }
    Ok(m)
}

/// The rwd gates: every violated candidate scored under all 14
/// measures, sampled cells bit-identical to a from-scratch contingency
/// table, and discovery identical to the retained full-codes lattice.
fn check(rwd: &Rwd, first: &Pass, seed: u64) -> Result<(), String> {
    if first.matrices.len() != rwd.relations.len() {
        return Err("rwd: a matrix or discover request failed".into());
    }
    let measures = all_measures();
    let mu = afd_core::measure_by_name(MEASURE).expect("mu+ is registered");
    let mut rng = seed | 1;
    for (r, rel) in rwd.relations.iter().enumerate() {
        let matrix = &first.matrices[r];
        let want = violated_candidates(rel);
        let complete = matrix.candidates == want
            && matrix.scores.len() == measures.len()
            && matrix
                .scores
                .iter()
                .all(|row| row.len() == want.len() && row.iter().all(|s| (0.0..=1.0).contains(s)));
        if !complete {
            return Err(format!(
                "rwd relation {r}: matrix does not score every candidate"
            ));
        }
        for _ in 0..SAMPLED_CELLS.min(want.len()) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let c = (rng % want.len() as u64) as usize;
            let m = ((rng >> 32) % measures.len() as u64) as usize;
            let fresh = measures[m].score_contingency(&want[c].contingency(rel));
            if fresh.to_bits() != matrix.scores[m][c].to_bits() {
                return Err(format!(
                    "rwd relation {r}: {} on {:?} is {} in the matrix, {fresh} from scratch",
                    measures[m].name(),
                    want[c],
                    matrix.scores[m][c]
                ));
            }
        }
        let cfg = LatticeConfig {
            max_lhs: MAX_LHS,
            epsilon: EPSILON,
        };
        let reference = naive_lattice::discover_all_threaded(rel, mu.as_ref(), cfg, rwd.threads);
        let found = &first.discovered[r].found;
        let same = found.len() == reference.len()
            && found
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.fd == b.fd && a.score.to_bits() == b.score.to_bits());
        if !same {
            return Err(format!(
                "rwd relation {r}: discovery found {} AFDs, the reference lattice {}",
                found.len(),
                reference.len()
            ));
        }
    }
    Ok(())
}

/// The traced layer split: table building and each measure timed
/// sequentially through the public kernels, over the same candidates
/// the matrix requests score.
pub fn layers(rwd: &mut Rwd) -> Metrics {
    let measures = all_measures();
    let mut build_s = 0.0;
    let mut cells = 0usize;
    let mut per_measure = vec![0.0; measures.len()];
    for rel in &rwd.relations {
        let candidates = violated_candidates(rel);
        let start = Instant::now();
        let tables = afd_eval::build_tables(rel, &candidates);
        build_s += start.elapsed().as_secs_f64();
        cells += tables.iter().map(|t| t.nonzero_cells()).sum::<usize>();
        for (i, m) in measures.iter().enumerate() {
            let start = Instant::now();
            for t in &tables {
                black_box(m.score_contingency(black_box(t)));
            }
            per_measure[i] += start.elapsed().as_secs_f64();
        }
    }
    rwd.sequential_s = Some(build_s + per_measure.iter().sum::<f64>());
    let mut m = Metrics::default();
    m.put("relation.build_tables_s", build_s, "s");
    m.put("relation.cells", cells as f64, "count");
    for (i, measure) in measures.iter().enumerate() {
        m.put(
            &format!("core.{}.s", metric_name(measure.name())),
            per_measure[i],
            "s",
        );
    }
    m
}

/// `afd-discovery` counters summed over the first pass's lattices.
fn lattice_counters(m: &mut Metrics, first: &Pass) {
    let (mut nodes, mut pruned, mut emitted, mut peak, mut fresh, mut reused) = (0, 0, 0, 0, 0, 0);
    for d in &first.discovered {
        let Some(stats) = &d.lattice else { continue };
        nodes += stats.total_candidates();
        pruned += stats.levels.iter().map(|l| l.pruned).sum::<usize>();
        emitted += stats.levels.iter().map(|l| l.emitted).sum::<usize>();
        peak = peak.max(stats.peak_node_bytes);
        fresh += stats.pool_fresh_allocs;
        reused += stats.pool_reuses;
    }
    m.put("discovery.nodes", nodes as f64, "count");
    m.put("discovery.pruned", pruned as f64, "count");
    m.put(
        "discovery.emit_ratio",
        emitted as f64 / nodes.max(1) as f64,
        "ratio",
    );
    m.put("discovery.peak_node_bytes", peak as f64, "B");
    m.put(
        "discovery.pool_reuse_ratio",
        reused as f64 / (fresh + reused).max(1) as f64,
        "ratio",
    );
}
