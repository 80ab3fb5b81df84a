//! Bounded-memory quantile estimation (log-bucketed sketch).
//!
//! Fleet-scale experiments produce one latency sample per *connection* —
//! 10^5–10^6 per cell — and the paper's tail metrics (p50/p99/p999) would
//! naively require retaining every sample for a sort. [`QuantileSketch`]
//! instead buckets samples on a logarithmic grid à la DDSketch: bucket
//! `i` covers `(γ^(i-1), γ^i]` with `γ = (1+α)/(1−α)`, so reporting the
//! bucket's geometric midpoint guarantees a *relative* error of at most
//! `α` for every quantile, at any sample count, in O(buckets) memory
//! (a few KB at the default α = 1%).
//!
//! Sketches are mergeable (bucket-wise addition), so per-shard sketches
//! built inside the deterministic parallel runner combine into exactly
//! the sketch a serial pass would have produced — quantiles stay
//! bit-identical at any worker count.

/// Default relative-error bound (1%).
pub const DEFAULT_ALPHA: f64 = 0.01;

/// Streaming quantile estimator with a guaranteed relative-error bound.
///
/// Non-negative samples only (latencies, byte counts, rates). Samples
/// below a tiny floor (`MIN_VALUE`) land in a dedicated zero bucket and
/// are reported as `0.0`.
///
/// ```
/// use longlook_stats::QuantileSketch;
/// let mut q = QuantileSketch::new();
/// for i in 1..=1000 {
///     q.add(i as f64);
/// }
/// let p99 = q.quantile(0.99);
/// assert!((p99 - 990.0).abs() / 990.0 <= 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    /// `1 / ln γ`, cached for the per-sample bucket computation.
    inv_ln_gamma: f64,
    /// Counts for buckets `lo_index ..`, grown on demand at both ends.
    counts: Vec<u64>,
    /// Bucket index of `counts[0]`.
    lo_index: i32,
    /// Samples `< MIN_VALUE` (including exact zeros).
    zero: u64,
    total: u64,
}

/// Samples below this are indistinguishable from zero for the sketch.
/// One picosecond when samples are milliseconds — far below anything the
/// simulator produces.
const MIN_VALUE: f64 = 1e-9;

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::with_alpha(DEFAULT_ALPHA)
    }
}

impl QuantileSketch {
    /// A sketch with the default 1% relative-error bound.
    pub fn new() -> Self {
        QuantileSketch::default()
    }

    /// A sketch with relative-error bound `alpha` (must be in `(0, 1)`).
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            inv_ln_gamma: 1.0 / gamma.ln(),
            counts: Vec::new(),
            lo_index: 0,
            zero: 0,
            total: 0,
        }
    }

    /// The configured relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of samples added.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Bucket index for a value `>= MIN_VALUE`: the smallest `i` with
    /// `γ^i >= x`, so bucket `i` covers `(γ^(i-1), γ^i]`.
    fn bucket_of(&self, x: f64) -> i32 {
        (x.ln() * self.inv_ln_gamma).ceil() as i32
    }

    /// Add one observation. Negative and NaN samples are rejected with a
    /// panic in debug builds and clamped to zero in release (the fleet
    /// world only produces non-negative latencies; a negative one is a
    /// bug upstream, not a data point).
    pub fn add(&mut self, x: f64) {
        debug_assert!(
            x >= 0.0 && !x.is_nan(),
            "sketch sample must be >= 0, got {x}"
        );
        self.total += 1;
        if x.is_nan() || x < MIN_VALUE {
            self.zero += 1;
            return;
        }
        let idx = self.bucket_of(x);
        self.bump(idx, 1);
    }

    fn bump(&mut self, idx: i32, n: u64) {
        if self.counts.is_empty() {
            self.lo_index = idx;
            self.counts.push(n);
            return;
        }
        if idx < self.lo_index {
            let grow = (self.lo_index - idx) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.lo_index = idx;
        }
        let off = (idx - self.lo_index) as usize;
        if off >= self.counts.len() {
            self.counts.resize(off + 1, 0);
        }
        self.counts[off] += n;
    }

    /// Merge another sketch into this one. Both must share the same
    /// `alpha` (bucket grids must line up).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "cannot merge sketches with different alpha"
        );
        self.zero += other.zero;
        self.total += other.total;
        for (off, &c) in other.counts.iter().enumerate() {
            if c > 0 {
                self.bump(other.lo_index + off as i32, c);
            }
        }
    }

    /// Merge `parts` into one sketch. Unlike [`Summary::merge_all`]
    /// (order-pinned because the batch formula is float-order-sensitive),
    /// bucket counts are `u64`s and addition is exact, so the result is
    /// bit-identical under **any** order or grouping of the same parts —
    /// the stored representation is canonical (first/last bucket nonzero,
    /// `lo_index` = minimum occupied bucket) and depends only on the
    /// bucket multiset. The shard-merge proptests pin this claim.
    ///
    /// [`Summary::merge_all`]: crate::Summary::merge_all
    /// The result inherits the first part's `alpha` (an empty iterator
    /// yields a default sketch); all parts must share it, as in [`merge`].
    ///
    /// [`merge`]: QuantileSketch::merge
    pub fn merge_all<'a, I: IntoIterator<Item = &'a QuantileSketch>>(parts: I) -> QuantileSketch {
        let mut iter = parts.into_iter();
        let Some(first) = iter.next() else {
            return QuantileSketch::new();
        };
        let mut total = first.clone();
        for p in iter {
            total.merge(p);
        }
        total
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) under nearest-rank
    /// semantics: the smallest value `v` such that at least `⌈q·n⌉`
    /// samples are `<= v`. Returns `NaN` if the sketch is empty.
    ///
    /// The estimate is the geometric midpoint `2γ^i / (γ + 1)` of the
    /// selected bucket, which is within a factor `1 ± α` of every value
    /// in that bucket — hence within relative error `α` of the exact
    /// nearest-rank quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if rank <= self.zero {
            return 0.0;
        }
        let mut seen = self.zero;
        for (off, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let i = (self.lo_index + off as i32) as f64;
                let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
                // Midpoint of (γ^(i-1), γ^i] with bounded relative error:
                // 2γ^i/(γ+1) = γ^(i-1) · 2γ/(γ+1).
                return 2.0 * gamma.powf(i) / (gamma + 1.0);
            }
        }
        // Unreachable: seen == total >= rank by the loop end.
        f64::NAN
    }

    /// Median shorthand.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile shorthand.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Number of non-empty buckets (diagnostic).
    pub fn buckets(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Heap bytes held by the sketch (bucket vector capacity).
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.counts.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank quantile for comparison.
    fn exact_nearest_rank(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    #[test]
    fn empty_sketch_is_nan() {
        let q = QuantileSketch::new();
        assert_eq!(q.count(), 0);
        assert!(q.p50().is_nan());
    }

    #[test]
    fn single_value_within_alpha() {
        let mut q = QuantileSketch::new();
        q.add(123.456);
        for p in [0.0, 0.5, 0.99, 1.0] {
            let est = q.quantile(p);
            assert!((est - 123.456).abs() / 123.456 <= q.alpha() + 1e-12);
        }
    }

    #[test]
    fn zeros_report_zero() {
        let mut q = QuantileSketch::new();
        for _ in 0..10 {
            q.add(0.0);
        }
        q.add(100.0);
        assert_eq!(q.p50(), 0.0);
        assert!(q.quantile(1.0) > 0.0);
    }

    #[test]
    fn uniform_grid_within_alpha() {
        let mut q = QuantileSketch::new();
        let samples: Vec<f64> = (1..=10_000).map(|i| i as f64 * 0.1).collect();
        for &x in &samples {
            q.add(x);
        }
        for p in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = exact_nearest_rank(&samples, p);
            let est = q.quantile(p);
            assert!(
                (est - exact).abs() / exact <= q.alpha() + 1e-9,
                "p={p}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn wide_dynamic_range() {
        // Microseconds to hours in one sketch.
        let mut q = QuantileSketch::new();
        let samples: Vec<f64> = (0..2_000).map(|i| 1e-3 * 1.01f64.powi(i)).collect();
        for &x in &samples {
            q.add(x);
        }
        let exact = exact_nearest_rank(&samples, 0.999);
        let est = q.p999();
        assert!((est - exact).abs() / exact <= q.alpha() + 1e-9);
        // Log-bucketing keeps memory modest even across ~9 decades.
        assert!(q.bytes() < 64 * 1024, "sketch grew to {} bytes", q.bytes());
    }

    #[test]
    fn merge_matches_bulk() {
        let samples: Vec<f64> = (0..5_000)
            .map(|i| 5.0 + ((i * 2654435761u64 % 997) as f64))
            .collect();
        let mut bulk = QuantileSketch::new();
        for &x in &samples {
            bulk.add(x);
        }
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for (i, &x) in samples.iter().enumerate() {
            if i % 3 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), bulk.count());
        for p in [0.1, 0.5, 0.99, 0.999] {
            assert_eq!(
                a.quantile(p),
                bulk.quantile(p),
                "merge must be exact at p={p}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::with_alpha(0.01);
        let b = QuantileSketch::with_alpha(0.02);
        a.merge(&b);
    }
}
