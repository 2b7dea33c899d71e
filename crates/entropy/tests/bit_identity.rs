//! Bit-identity pin for the memoised expected mutual information: one
//! [`ExpectedMiMemo`] fed tables whose `N` goes both up and down (as
//! NULL-filtered candidates of one relation do) must return the exact
//! bits of a fresh [`expected_mi_exact`] on every table.

use afd_entropy::{expected_mi_exact, ExpectedMiMemo};
use afd_relation::ContingencyTable;
use proptest::prelude::*;

fn tables() -> impl Strategy<Value = Vec<Vec<Vec<u64>>>> {
    let counts = prop::collection::vec(prop::collection::vec(0u64..9, 1..7), 1..7);
    prop::collection::vec(counts, 1..8)
}

proptest! {
    #[test]
    fn memo_matches_fresh_exact_in_any_order(seq in tables()) {
        let mut memo = ExpectedMiMemo::new();
        for c in &seq {
            let t = ContingencyTable::from_counts(c);
            let fresh = expected_mi_exact(&t);
            let memoised = memo.expected_mi(&t);
            prop_assert_eq!(fresh.to_bits(), memoised.to_bits(), "N={}", t.n());
        }
    }
}

#[test]
fn memo_reuses_inner_sums_across_tables() {
    let big = ContingencyTable::from_counts(&[vec![6, 1, 0], vec![2, 5, 1], vec![0, 1, 4]]);
    let small = ContingencyTable::from_counts(&[vec![2, 1], vec![0, 3]]);
    let mut memo = ExpectedMiMemo::new();
    for t in [&big, &small, &big] {
        assert_eq!(
            memo.expected_mi(t).to_bits(),
            expected_mi_exact(t).to_bits()
        );
    }
    let after = memo.len();
    // Scoring a table again is all hits.
    memo.expected_mi(&small);
    memo.expected_mi(&big);
    assert_eq!(memo.len(), after);
}
