//! Ablation benches for the design choices called out in DESIGN.md §5:
//!
//! * `sfi`: the paper-cost SFI walk over every cell of `π^(α)` vs. the
//!   closed form that folds the uniform absent-cell mass into one term;
//! * `expected_mi`: exact hypergeometric E[I] vs. Monte-Carlo sampling at
//!   increasing sample counts;
//! * `g3_path`: measure-trait g3 via contingency vs. the TANE PLI fast
//!   path.

use afd_bench::{fixture_relation, fixture_table};
use afd_core::{sfi_closed_form, Measure, Sfi, G3};
use afd_discovery::g3_from_pli;
use afd_relation::{AttrId, AttrSet, Fd, Pli};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_sfi(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sfi");
    group.sample_size(10);
    for &n in &[1024usize, 4096] {
        let t = fixture_table(n, 11);
        let sfi = Sfi::half();
        group.bench_with_input(BenchmarkId::new("cell_walk", n), &t, |b, t| {
            b.iter(|| black_box(sfi.score_contingency(black_box(t))))
        });
        group.bench_with_input(BenchmarkId::new("closed_form", n), &t, |b, t| {
            b.iter(|| black_box(sfi_closed_form(black_box(t), 0.5)))
        });
    }
    group.finish();
}

fn bench_expected_mi(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_expected_mi");
    group.sample_size(10);
    let t = fixture_table(1024, 13);
    group.bench_function("exact", |b| {
        b.iter(|| black_box(afd_entropy::expected_mi_exact(black_box(&t))))
    });
    for &samples in &[16usize, 128] {
        group.bench_with_input(
            BenchmarkId::new("monte_carlo", samples),
            &samples,
            |b, &s| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(5);
                    black_box(afd_entropy::expected_mi_monte_carlo(&t, s, &mut rng))
                })
            },
        );
    }
    group.finish();
}

fn bench_g3_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_g3_path");
    group.sample_size(20);
    for &n in &[1024usize, 8192] {
        let rel = fixture_relation(n, 17);
        let fd = Fd::linear(AttrId(0), AttrId(1));
        group.bench_with_input(BenchmarkId::new("contingency", n), &rel, |b, r| {
            b.iter(|| black_box(G3.score(black_box(r), &fd)))
        });
        let pli = Pli::from_relation(&rel, &AttrSet::single(AttrId(0)));
        group.bench_with_input(
            BenchmarkId::new("pli_fast_path", n),
            &(rel, pli),
            |b, (r, p)| b.iter(|| black_box(g3_from_pli(r, p, AttrId(1)))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sfi, bench_expected_mi, bench_g3_path);
criterion_main!(benches);
