//! Streaming summary statistics (Welford's online algorithm).

/// Online mean / variance / extrema accumulator.
///
/// Uses Welford's algorithm so that adding millions of samples (e.g. one per
/// simulated packet) stays numerically stable. The paper reports results as
/// `mean (std)` over at least 10 experiment rounds; [`Summary`] is the type
/// every experiment in this workspace aggregates into.
///
/// ```
/// use longlook_stats::Summary;
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's `M2`).
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty accumulator.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Build a summary from a slice in one call.
    pub fn of(samples: &[f64]) -> Self {
        samples.iter().copied().collect()
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merge another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Fold `parts` into one summary **in iteration order** with the
    /// batch merge formula.
    ///
    /// The batch formula is floating-point order-sensitive: merging the
    /// same parts in a different order (or grouping) can change the low
    /// bits of `mean`/`m2`. Callers that need bit-identical aggregates
    /// across execution strategies (the parallel runner) must therefore
    /// fold their partials in one *pinned* canonical order — this helper
    /// is that fold, and given the same parts in the same order it is
    /// bit-exact no matter which threads computed the parts.
    pub fn merge_all<'a, I: IntoIterator<Item = &'a Summary>>(parts: I) -> Summary {
        let mut total = Summary::new();
        for p in parts {
            total.merge(p);
        }
        total
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean. Zero for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`n - 1` denominator). Zero when `n < 2`.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (`n` denominator). Zero when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation, or `NaN` if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation, or `NaN` if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// `mean (std)` formatting used throughout the paper's tables.
    pub fn mean_std(&self) -> String {
        format!("{:.2} ({:.2})", self.mean(), self.sample_std_dev())
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

/// Median of a sample slice (interpolated for even lengths). `NaN` if empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Linear-interpolated percentile in `[0, 100]`. `NaN` if empty.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = (pct / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn known_variance() {
        // Var of 1..=10 is 9.1666... (sample), 8.25 (population).
        let s: Summary = (1..=10).map(f64::from).collect();
        assert!((s.mean() - 5.5).abs() < 1e-12);
        assert!((s.sample_variance() - 55.0 / 6.0).abs() < 1e-9);
        assert!((s.population_variance() - 8.25).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_bulk() {
        let all: Summary = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut a: Summary = (0..37).map(|i| (i as f64).sin() * 10.0).collect();
        let b: Summary = (37..100).map(|i| (i as f64).sin() * 10.0).collect();
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Summary::of(&[1.0, 2.0]);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn mean_std_format() {
        let s = Summary::of(&[2.0, 4.0]);
        assert_eq!(s.mean_std(), "3.00 (1.41)");
    }
}
