//! Sample summaries, the percentile rule, process memory, and the
//! metric sink the final JSON line is rendered from.

use std::collections::BTreeMap;
use std::time::Duration;

/// Samples per window of a windowed percentile: the fewest that allow
/// a p99 with ten samples beyond it.
pub const WINDOW: usize = 1000;

/// Percentiles the rule may pick, in per-mille, highest first.
const LADDER: [u32; 4] = [999, 990, 900, 500];

/// 1-based nearest rank of per-mille `pm` in `n` sorted samples.
fn rank(n: usize, pm: u32) -> usize {
    (n * pm as usize).div_ceil(1000).max(1)
}

/// The highest percentile (per-mille, from 50 / 90 / 99 / 99.9) that
/// has at least ten samples beyond it, or `None` when even the median
/// has fewer than ten above it.
pub fn reportable_permille(n: usize) -> Option<u32> {
    LADDER
        .into_iter()
        .find(|&pm| n >= rank(n, pm) && n - rank(n, pm) >= 10)
}

/// Nearest-rank percentile (per-mille) of unsorted samples.
pub fn percentile(samples: &[f64], pm: u32) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), pm) - 1]
}

/// The middle value, or the mean of the two middle values.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of a live process in MiB, 0 when the
/// process is gone or the platform has no `/proc`.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restarts a live process's `VmHWM` from its current resident set
/// (Linux `clear_refs` code 5); a no-op elsewhere.
pub fn reset_peak_rss(pid: u32) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// Named metrics with units, plus the sample counts behind percentiles.
#[derive(Debug, Default)]
pub struct Metrics {
    pub values: BTreeMap<String, (f64, &'static str)>,
    /// Percentile metric → (samples, windows they were split into).
    pub samples: BTreeMap<String, (usize, usize)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Records the p50 and p99 of per-round samples (milliseconds, in
    /// arrival order) under `<prefix>_p50_ms` / `<prefix>_p99_ms`. Each
    /// round is cut into consecutive windows of at least [`WINDOW`]
    /// samples; the metric is the median over all windows of the
    /// window's percentile, so a burst of host noise moves one window,
    /// not the run.
    ///
    /// # Errors
    /// When a round has fewer samples than one window.
    pub fn put_p50_p99(&mut self, prefix: &str, rounds: &[Vec<f64>]) -> Result<(), String> {
        let mut windows: Vec<&[f64]> = Vec::new();
        for round in rounds {
            let n = round.len();
            if reportable_permille(n / (n / WINDOW).max(1)).unwrap_or(0) < 990 {
                return Err(format!(
                    "{prefix}: a round of {n} samples cannot support a p99"
                ));
            }
            let k = n / WINDOW;
            windows.extend((0..k).map(|w| &round[w * n / k..(w + 1) * n / k]));
        }
        let n: usize = rounds.iter().map(Vec::len).sum();
        for (pm, tag) in [(500, "p50"), (990, "p99")] {
            let per_window: Vec<f64> = windows.iter().map(|w| percentile(w, pm)).collect();
            let name = format!("{prefix}_{tag}_ms");
            self.put(&name, median(&per_window), "ms");
            self.samples.insert(name, (n, windows.len()));
        }
        Ok(())
    }

    pub fn absorb(&mut self, other: Metrics) {
        self.values.extend(other.values);
        self.samples.extend(other.samples);
    }
}

/// Renders a float so it parses as JSON (non-finite values become null).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(reportable_permille(1000), Some(990));
        assert_eq!(reportable_permille(999), Some(900));
        assert_eq!(reportable_permille(9999), Some(990));
        assert_eq!(reportable_permille(10_000), Some(999));
        assert_eq!(reportable_permille(100), Some(900));
        assert_eq!(reportable_permille(99), Some(500));
        assert_eq!(reportable_permille(20), Some(500));
        assert_eq!(reportable_permille(19), None);
        assert_eq!(reportable_permille(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 500.0);
        assert_eq!(percentile(&s, 990), 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p99_refused_below_a_thousand_samples() {
        let mut m = Metrics::default();
        assert!(m.put_p50_p99("x", &[vec![1.0; 999]]).is_err());
        assert!(m
            .put_p50_p99("x", &[vec![1.0; 1000], vec![1.0; 999]])
            .is_err());
        assert!(m.put_p50_p99("x", &[vec![1.0; 1000]]).is_ok());
        assert_eq!(m.samples["x_p99_ms"], (1000, 1));
    }

    #[test]
    fn one_noisy_window_does_not_move_the_windowed_p99() {
        let mut noisy = vec![1.0; 2000];
        noisy[1000..1100].fill(50.0);
        let mut m = Metrics::default();
        m.put_p50_p99("x", &[noisy, vec![1.0; 1500]]).unwrap();
        assert_eq!(m.values["x_p99_ms"].0, 1.0);
        assert_eq!(m.samples["x_p99_ms"], (3500, 3));
    }
}
