//! # afd-bench
//!
//! Criterion benchmarks for the AFD measure study. The benches live in
//! `benches/` and the `BENCH_*.json` recorders in `examples/`; this
//! library only hosts the shared fixture builders and sample statistics
//! so those targets stay small.

use afd_net::WorkerCommand;
use afd_relation::{AttrId, AttrSet, ContingencyTable, Relation};
use afd_synth::{generate_positive, GenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic noisy-FD relation of `n` rows (the Table V workload
/// shape: |dom(X)| = n/8, |dom(Y)| = n/32, 1% errors).
pub fn fixture_relation(n: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = GenParams::sample_with_rows(n, &mut rng);
    p.dom_x = (n / 8).max(4);
    p.dom_y = (n / 32).max(3);
    p.error_rate = 0.01;
    generate_positive(&p, &mut rng).0
}

/// The contingency table of `X -> Y` on [`fixture_relation`].
pub fn fixture_table(n: usize, seed: u64) -> ContingencyTable {
    let rel = fixture_relation(n, seed);
    ContingencyTable::from_relation(
        &rel,
        &AttrSet::single(AttrId(0)),
        &AttrSet::single(AttrId(1)),
    )
}

/// The workspace's `afd` binary next to the running example, as a shard
/// worker command; exits 1 with a build hint when it is missing.
pub fn afd_worker() -> WorkerCommand {
    WorkerCommand::sibling_binary("afd").unwrap_or_else(|| {
        eprintln!(
            "FAIL: could not find the `afd` binary next to this example; \
             run `cargo build --release` (or --profile matching this run) first"
        );
        std::process::exit(1);
    })
}

/// The nearest-rank `p`-quantile of `samples` (`p` in `0.0..=1.0`): the
/// sorted sample at index `round((len - 1) * p)`.
///
/// # Panics
/// On an empty slice.
pub fn percentile<T: Ord + Copy>(samples: &[T], p: f64) -> T {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// The median (the upper one for an even count): `percentile(samples, 0.5)`.
///
/// # Panics
/// On an empty slice.
pub fn median<T: Ord + Copy>(samples: &[T]) -> T {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_requested_shape() {
        let t = fixture_table(1024, 1);
        assert_eq!(t.n(), 1024);
        assert!(t.n_x() <= 128);
        assert!(!t.is_exact_fd());
    }

    #[test]
    fn percentiles_pick_nearest_ranks() {
        assert_eq!(median(&[3, 1, 2]), 2);
        assert_eq!(median(&[4, 1, 3, 2]), 3);
        let hundred: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&hundred, 0.0), 1);
        assert_eq!(percentile(&hundred, 0.99), 99);
        assert_eq!(percentile(&hundred, 1.0), 100);
    }
}
