//! Time-budgeted measure evaluation (Table V and the RWD⁻ mechanism).
//!
//! The paper gave every measure a 24h budget; the cheap ones finished all
//! 1634 candidates in ~2 minutes while SFI managed 1430 and RFI⁺/RFI′⁺
//! only 250. [`score_with_budget`] reproduces those semantics at any
//! scale: each measure scores candidates in the given order until its
//! budget is spent, recording per-candidate scores and total elapsed time.
//!
//! Each measure is timed alone through the per-table
//! `Measure::score_contingency` path: no `E[I]` memo is shared across
//! measures or candidates here (only the engine's `MatrixRequest` path
//! shares one), so RFI⁺ and RFI′⁺ each pay their full hypergeometric
//! cost, as in the paper's Table V.

use afd_core::Measure;
use afd_relation::ContingencyTable;
use std::time::{Duration, Instant};

/// Outcome of a budgeted run for one measure.
#[derive(Debug, Clone)]
pub struct MeasureRun {
    /// Measure name.
    pub name: &'static str,
    /// Per-candidate score; `None` if the budget ran out first.
    pub scores: Vec<Option<f64>>,
    /// Candidates completed within the budget.
    pub completed: usize,
    /// Wall-clock time actually spent.
    pub elapsed: Duration,
}

impl MeasureRun {
    /// `true` iff every candidate was scored.
    pub fn finished(&self) -> bool {
        self.completed == self.scores.len()
    }
}

/// Scores every measure over pre-built contingency `tables` with a
/// per-measure wall-clock `budget`. Candidates are processed in slice
/// order; reorder cheap-first beforehand if, like the paper, the ground
/// truth must land inside the completed prefix.
pub fn score_with_budget(
    tables: &[ContingencyTable],
    measures: &[Box<dyn Measure>],
    budget: Duration,
) -> Vec<MeasureRun> {
    measures
        .iter()
        .map(|m| {
            let start = Instant::now();
            let mut scores = vec![None; tables.len()];
            let mut completed = 0;
            for (i, t) in tables.iter().enumerate() {
                if start.elapsed() > budget {
                    break;
                }
                scores[i] = Some(m.score_contingency(t));
                completed += 1;
            }
            MeasureRun {
                name: m.name(),
                scores,
                completed,
                elapsed: start.elapsed(),
            }
        })
        .collect()
}

/// The RWD⁻ candidate set: indices every measure completed. With a
/// cheap-first ordering this is the prefix the slowest measure managed.
pub fn common_completed(runs: &[MeasureRun]) -> Vec<usize> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    (0..first.scores.len())
        .filter(|&i| runs.iter().all(|r| r.scores[i].is_some()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::{all_measures, measure_by_name};

    fn tables(n: usize) -> Vec<ContingencyTable> {
        (0..n)
            .map(|i| {
                ContingencyTable::from_counts(&[vec![3 + i as u64, 1], vec![0, 4], vec![2, 2]])
            })
            .collect()
    }

    #[test]
    fn generous_budget_finishes_everything() {
        let ts = tables(20);
        let runs = score_with_budget(&ts, &all_measures(), Duration::from_secs(30));
        for r in &runs {
            assert!(r.finished(), "{} unfinished", r.name);
            assert_eq!(r.completed, 20);
        }
        assert_eq!(common_completed(&runs).len(), 20);
    }

    #[test]
    fn zero_budget_completes_nothing() {
        let ts = tables(5);
        let measures = vec![measure_by_name("mu+").unwrap()];
        let runs = score_with_budget(&ts, &measures, Duration::ZERO);
        // The first candidate may squeak in before the first clock check;
        // everything after cannot.
        assert!(runs[0].completed <= 1);
    }

    #[test]
    fn common_completed_is_intersection() {
        let runs = vec![
            MeasureRun {
                name: "a",
                scores: vec![Some(1.0), Some(1.0), None],
                completed: 2,
                elapsed: Duration::ZERO,
            },
            MeasureRun {
                name: "b",
                scores: vec![Some(1.0), None, None],
                completed: 1,
                elapsed: Duration::ZERO,
            },
        ];
        assert_eq!(common_completed(&runs), vec![0]);
    }

    #[test]
    fn empty_inputs() {
        assert!(common_completed(&[]).is_empty());
        let runs = score_with_budget(&[], &all_measures(), Duration::from_secs(1));
        assert!(runs.iter().all(|r| r.finished() && r.completed == 0));
    }
}
