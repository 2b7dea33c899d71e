//! Log-factorial tables for hypergeometric probabilities.

/// Table of `ln(k!)` for `k = 0..=n`, built by cumulative summation.
///
/// Cumulative `ln` sums keep the relative error around 1e-12 for the table
/// sizes used here (up to a few million), which is far below the Monte-Carlo
/// noise floor the exact expected-MI computation is compared against.
///
/// The table grows on demand ([`LogFactorial::grow_to`]) by continuing the
/// same running sum, so entry `k` has the same bits whatever size the
/// table was built or grown to.
#[derive(Debug, Clone)]
pub struct LogFactorial {
    table: Vec<f64>,
}

impl Default for LogFactorial {
    /// The table for `ln 0!` alone; grow it with [`LogFactorial::grow_to`].
    fn default() -> Self {
        LogFactorial::new(0)
    }
}

impl LogFactorial {
    /// Builds the table for arguments up to `n` inclusive.
    pub fn new(n: usize) -> Self {
        let mut lf = LogFactorial {
            table: Vec::with_capacity(n + 1),
        };
        lf.table.push(0.0); // ln 0! = 0
        lf.grow_to(n);
        lf
    }

    /// Extends the table to cover arguments up to `n` inclusive (a no-op
    /// if it already does).
    pub fn grow_to(&mut self, n: usize) {
        let mut acc = *self.table.last().expect("ln 0! is always present");
        for k in self.table.len()..=n {
            acc += (k as f64).ln();
            self.table.push(acc);
        }
    }

    /// `ln(k!)`.
    ///
    /// # Panics
    /// Panics if `k` exceeds the table size (programmer error).
    #[inline]
    pub fn ln_fact(&self, k: u64) -> f64 {
        self.table[k as usize]
    }

    /// `ln C(n, k)` — natural log of the binomial coefficient.
    #[inline]
    pub fn ln_choose(&self, n: u64, k: u64) -> f64 {
        debug_assert!(k <= n);
        self.ln_fact(n) - self.ln_fact(k) - self.ln_fact(n - k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_factorials_exact() {
        let lf = LogFactorial::new(10);
        assert_eq!(lf.ln_fact(0), 0.0);
        assert_eq!(lf.ln_fact(1), 0.0);
        assert!((lf.ln_fact(5) - 120f64.ln()).abs() < 1e-12);
        assert!((lf.ln_fact(10) - 3628800f64.ln()).abs() < 1e-11);
    }

    #[test]
    fn binomials() {
        let lf = LogFactorial::new(20);
        assert!((lf.ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((lf.ln_choose(20, 10) - 184756f64.ln()).abs() < 1e-10);
        assert_eq!(lf.ln_choose(7, 0), 0.0);
        assert_eq!(lf.ln_choose(7, 7), 0.0);
    }

    #[test]
    fn grown_prefix_is_bit_identical() {
        let mut grown = LogFactorial::new(3);
        grown.grow_to(1000);
        grown.grow_to(10); // shrinking requests keep the table
        let fresh = LogFactorial::new(1000);
        for k in 0..=1000 {
            assert_eq!(grown.ln_fact(k).to_bits(), fresh.ln_fact(k).to_bits());
        }
    }
}
