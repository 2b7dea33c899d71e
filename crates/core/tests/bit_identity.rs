//! Bit-identity pins for the fast kernels of the slow measures: the SFI
//! walk against the dense `K_X × K_Y` reference it replaced, and the
//! memoised RFI path against the per-table one, compared with
//! `f64::to_bits` on full-codes and stripped tables alike.

use afd_core::*;
use afd_relation::{strip_codes_into, with_scratch, ContingencyTable};
use proptest::prelude::*;
use std::collections::HashMap;

const X_BOUND: u32 = 40;

/// Per-row `(x, y)` codes: up to 40 X values over up to 160 rows, so
/// tables mix multi-row groups with many singletons and absent cells.
fn rows() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..X_BOUND, 0u32..9), 2..160)
}

fn alphas() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![0.5f64, 1.0, 2.0])
}

/// The full-codes table of `rows` and the same table built from the
/// stripped X-partition, whose singleton groups stay implicit.
fn full_and_stripped(rows: &[(u32, u32)]) -> (ContingencyTable, ContingencyTable) {
    let x: Vec<u32> = rows.iter().map(|r| r.0).collect();
    let y: Vec<u32> = rows.iter().map(|r| r.1).collect();
    let full = ContingencyTable::from_codes(&x, &y);
    let mut ids: HashMap<u32, u32> = HashMap::new();
    let mut col_totals: Vec<u64> = Vec::new();
    let y_dense: Vec<u32> = y
        .iter()
        .map(|v| {
            let next = ids.len() as u32;
            let id = *ids.entry(*v).or_insert(next);
            if id as usize == col_totals.len() {
                col_totals.push(0);
            }
            col_totals[id as usize] += 1;
            id
        })
        .collect();
    let (mut cluster_rows, mut starts, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
    with_scratch(|s| {
        strip_codes_into(s, &x, X_BOUND, &mut cluster_rows, &mut starts, &mut dropped)
    });
    let implicit = (x.len() - cluster_rows.len()) as u64;
    let stripped = with_scratch(|s| {
        ContingencyTable::from_stripped_with(
            s,
            &cluster_rows,
            &starts,
            &y_dense,
            &col_totals,
            x.len() as u64,
            implicit,
        )
    });
    (full, stripped)
}

/// The dense SFI scorer: materialises the smoothed `π^{(α)}` matrix of
/// the explicit groups and takes one `log2` per cell, plus the
/// closed-form term of the implicit singleton groups.
fn sfi_dense_reference(t: &ContingencyTable, alpha: f64) -> f64 {
    let (kx, ky) = (t.n_x(), t.n_y());
    let kx_explicit = t.n_explicit_x();
    let mut dense = vec![alpha; kx_explicit * ky];
    for (i, j, c) in t.cells() {
        dense[i * ky + j] += c as f64;
    }
    let n = t.n() as f64 + alpha * (kx * ky) as f64;
    let mut hy = 0.0;
    for j in 0..ky {
        let b = t.col_totals()[j] as f64 + alpha * kx as f64;
        let p = b / n;
        hy -= p * p.log2();
    }
    let mut hyx = 0.0;
    for i in 0..kx_explicit {
        let a = t.row_totals()[i] as f64 + alpha * ky as f64;
        for j in 0..ky {
            let c = dense[i * ky + j];
            hyx -= (c / n) * (c / a).log2();
        }
    }
    let implicit = t.implicit_singletons();
    if implicit > 0 {
        let a = 1.0 + alpha * ky as f64;
        let hit = 1.0 + alpha;
        let mut per_row = -(hit / n) * (hit / a).log2();
        per_row -= (ky as f64 - 1.0) * (alpha / n) * (alpha / a).log2();
        hyx += implicit as f64 * per_row;
    }
    if hy <= f64::EPSILON {
        return 1.0;
    }
    1.0 - hyx / hy
}

proptest! {
    /// The SFI walk reproduces the dense loop bit for bit, on full-codes
    /// tables and on stripped tables with implicit singletons.
    #[test]
    fn sfi_walk_matches_dense_reference(r in rows(), alpha in alphas()) {
        let (full, stripped) = full_and_stripped(&r);
        prop_assert_eq!(stripped.n(), full.n());
        let sfi = Sfi::new(alpha);
        for t in [&full, &stripped] {
            let walk = sfi.score_table(t);
            let dense = sfi_dense_reference(t, alpha);
            prop_assert_eq!(walk.to_bits(), dense.to_bits(), "α={} walk={} dense={}", alpha, walk, dense);
        }
    }

    /// The SFI walk on dense count matrices with zero cells.
    #[test]
    fn sfi_walk_matches_dense_reference_on_counts(
        c in prop::collection::vec(prop::collection::vec(0u64..5, 1..12), 1..12),
        alpha in alphas(),
    ) {
        prop_assume!(c.iter().flatten().any(|&v| v > 0));
        let t = ContingencyTable::from_counts(&c);
        let walk = Sfi::new(alpha).score_table(&t);
        let dense = sfi_dense_reference(&t, alpha);
        prop_assert_eq!(walk.to_bits(), dense.to_bits(), "α={} walk={} dense={}", alpha, walk, dense);
    }

    /// One memo shared across a sequence of tables (full and stripped,
    /// `N` going up and down) scores every measure bit-identically to
    /// the per-table path.
    #[test]
    fn memo_path_matches_per_table_path(seq in prop::collection::vec(rows(), 1..5)) {
        let measures = all_measures();
        let mut memo = ExpectedMiMemo::new();
        for r in &seq {
            let (full, stripped) = full_and_stripped(r);
            for t in [&full, &stripped] {
                for m in &measures {
                    let plain = m.score_contingency(t);
                    let memoised = m.score_contingency_memo(t, &mut memo);
                    prop_assert_eq!(plain.to_bits(), memoised.to_bits(), "{}", m.name());
                }
            }
        }
    }
}

#[test]
fn rfi_prime_after_rfi_on_one_table_adds_no_inner_sums() {
    let t = ContingencyTable::from_counts(&[vec![5, 1, 0], vec![2, 4, 1], vec![0, 1, 6]]);
    let mut memo = ExpectedMiMemo::new();
    RfiPlus.score_contingency_memo(&t, &mut memo);
    let filled = memo.len();
    assert!(filled > 0);
    RfiPrimePlus.score_contingency_memo(&t, &mut memo);
    assert_eq!(memo.len(), filled);
    // Measures without an `E[I]` term never touch the memo.
    let mut untouched = ExpectedMiMemo::new();
    Sfi::half().score_contingency_memo(&t, &mut untouched);
    assert!(untouched.is_empty());
}
