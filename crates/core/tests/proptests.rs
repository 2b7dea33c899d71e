//! Cross-measure property tests: invariants every AFD measure must obey.

use afd_core::*;
use afd_relation::ContingencyTable;
use proptest::prelude::*;

fn counts() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..7, 1..5), 1..5)
}

fn nonempty(c: &[Vec<u64>]) -> bool {
    c.iter().flatten().any(|&v| v > 0)
}

proptest! {
    /// Every measure returns a value in [0, 1] on every table.
    #[test]
    fn scores_in_unit_interval(c in counts()) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        for m in all_measures() {
            let s = m.score_contingency(&t);
            prop_assert!((0.0..=1.0).contains(&s), "{} scored {s}", m.name());
            prop_assert!(s.is_finite(), "{} not finite", m.name());
        }
    }

    /// A measure scores exactly 1 if and only if the FD holds exactly
    /// (Section IV: the formulas are all strictly below 1 on violated
    /// tables).
    #[test]
    fn one_iff_exact(c in counts()) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        for m in all_measures() {
            let s = m.score_contingency(&t);
            if t.is_exact_fd() {
                prop_assert_eq!(s, 1.0, "{} on exact FD", m.name());
            } else {
                prop_assert!(s < 1.0, "{} scored 1 on violated table", m.name());
            }
        }
    }

    /// Tuple-frequency scaling: duplicating the whole bag leaves the
    /// distribution-based measures unchanged.
    #[test]
    fn distribution_measures_scale_invariant(c in counts(), k in 2u64..4) {
        prop_assume!(nonempty(&c));
        let t1 = ContingencyTable::from_counts(&c);
        let scaled: Vec<Vec<u64>> = c.iter().map(|r| r.iter().map(|&v| v * k).collect()).collect();
        let t2 = ContingencyTable::from_counts(&scaled);
        // rho, g2, g3, g1S, FI, g1, pdep, tau are functions of the joint
        // distribution (or the support) only.
        for name in ["rho", "g2", "g3", "g1S", "FI", "g1", "pdep", "tau"] {
            let m = measure_by_name(name).unwrap();
            let a = m.score_contingency(&t1);
            let b = m.score_contingency(&t2);
            prop_assert!((a - b).abs() < 1e-9, "{name}: {a} vs {b}");
        }
    }

    /// Normalisation orderings the formulas imply.
    #[test]
    fn normalisation_orderings(c in counts()) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        prop_assume!(!t.is_exact_fd());
        let score = |n: &str| measure_by_name(n).unwrap().score_contingency(&t);
        // g3' rescales g3's floor to 0.
        prop_assert!(score("g3'") <= score("g3") + 1e-12);
        // tau subtracts baseline luck from pdep; mu subtracts more.
        prop_assert!(score("tau") <= score("pdep") + 1e-12);
        prop_assert!(score("mu+") <= score("tau") + 1e-12);
        // RFI+ subtracts E[FI] from FI.
        prop_assert!(score("RFI+") <= score("FI") + 1e-12);
    }

    /// On outer-product (independent) tables the bias-corrected and
    /// independence-baselined measures are ~0.
    #[test]
    fn independence_baselines(px in prop::collection::vec(1u64..5, 2..4),
                              py in prop::collection::vec(1u64..5, 2..4)) {
        let c: Vec<Vec<u64>> = px.iter().map(|&a| py.iter().map(|&b| a * b).collect()).collect();
        let t = ContingencyTable::from_counts(&c);
        prop_assume!(!t.is_exact_fd());
        for name in ["FI", "tau"] {
            let s = measure_by_name(name).unwrap().score_contingency(&t);
            prop_assert!(s < 1e-6, "{name} on independent table: {s}");
        }
        for name in ["RFI+", "RFI'+", "mu+"] {
            let s = measure_by_name(name).unwrap().score_contingency(&t);
            prop_assert!(s < 1e-9, "{name} on independent table: {s}");
        }
    }

    /// SFI closed form agrees with the walking scorer everywhere.
    #[test]
    fn sfi_closed_form_agrees(c in counts(), alpha in prop::sample::select(vec![0.5f64, 1.0, 2.0])) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        let naive = Sfi::new(alpha).score_contingency(&t);
        let closed = sfi_closed_form(&t, alpha);
        prop_assert!((naive - closed).abs() < 1e-9, "naive={naive} closed={closed}");
    }
}
