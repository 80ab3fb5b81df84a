//! Property-based tests for the statistics layer.

use longlook_stats::beta::{binomial_ci, incomplete_beta, student_t_two_sided_p};
use longlook_stats::heatmap::HeatmapCell;
use longlook_stats::summary::{median, percentile};
use longlook_stats::{welch_t_test, Comparison, QuantileSketch, Summary, Verdict};
use proptest::prelude::*;

/// Exact nearest-rank quantile: smallest value with at least `⌈q·n⌉`
/// samples `<=` it. This is the semantics `QuantileSketch::quantile`
/// guarantees its `±α` relative-error bound against.
fn exact_nearest_rank(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Deterministic Fisher–Yates driven by proptest-chosen indices: swap
/// element `i` with `swaps[i].index(i + 1)` for `i = len-1 .. 1`.
fn permuted(xs: &[f64], swaps: &[prop::sample::Index]) -> Vec<f64> {
    let mut out = xs.to_vec();
    if out.len() < 2 || swaps.is_empty() {
        return out;
    }
    for i in (1..out.len()).rev() {
        let j = swaps[i % swaps.len()].index(i + 1);
        out.swap(i, j);
    }
    out
}

proptest! {
    /// Welford summary matches the naive two-pass computation.
    #[test]
    fn summary_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let s = Summary::of(&xs);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.sample_variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
        prop_assert_eq!(s.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Merging split summaries equals the bulk summary.
    #[test]
    fn summary_merge_associative(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
        cut in any::<prop::sample::Index>(),
    ) {
        let k = cut.index(xs.len() - 1) + 1;
        let mut a = Summary::of(&xs[..k]);
        let b = Summary::of(&xs[k..]);
        a.merge(&b);
        let bulk = Summary::of(&xs);
        prop_assert_eq!(a.count(), bulk.count());
        prop_assert!((a.mean() - bulk.mean()).abs() < 1e-9 * (1.0 + bulk.mean().abs()));
        prop_assert!(
            (a.sample_variance() - bulk.sample_variance()).abs()
                < 1e-6 * (1.0 + bulk.sample_variance())
        );
    }

    /// The streaming mean is pinned to the exact batch formula
    /// `Σx / n` and the streaming M2 to `Σ(x − mean)²` — the Welford
    /// recurrence must be an implementation detail, not a different
    /// statistic. (Complements `summary_matches_naive` by checking the
    /// incremental path one `add` at a time against a fresh batch
    /// recomputation at every prefix.)
    #[test]
    fn summary_prefixes_match_batch(xs in proptest::collection::vec(-1e5f64..1e5, 1..60)) {
        let mut s = Summary::new();
        for (i, &x) in xs.iter().enumerate() {
            s.add(x);
            let prefix = &xs[..=i];
            let n = prefix.len() as f64;
            let mean = prefix.iter().sum::<f64>() / n;
            let m2 = prefix.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>();
            prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!(
                (s.population_variance() - m2 / n).abs() < 1e-4 * (1.0 + m2 / n),
                "prefix {} var {} vs batch {}", i + 1, s.population_variance(), m2 / n
            );
        }
    }

    /// The quantile sketch's estimate is within its configured relative
    /// error of the exact nearest-rank quantile, for arbitrary positive
    /// samples (up to 10k) and arbitrary quantiles.
    #[test]
    fn sketch_within_alpha_of_exact(
        xs in proptest::collection::vec(1e-3f64..1e6, 1..2_000),
        q in 0.0f64..1.0,
    ) {
        let mut sk = QuantileSketch::new();
        for &x in &xs {
            sk.add(x);
        }
        let exact = exact_nearest_rank(&xs, q);
        let est = sk.quantile(q);
        prop_assert!(
            (est - exact).abs() / exact <= sk.alpha() + 1e-9,
            "q={q}: est {est} vs exact {exact} on {} samples", xs.len()
        );
    }

    /// Merging split sketches is exactly equivalent to the bulk sketch —
    /// the property the deterministic parallel runner relies on for
    /// jobs-invariant fleet quantiles.
    #[test]
    fn sketch_merge_matches_bulk(
        xs in proptest::collection::vec(1e-3f64..1e6, 2..500),
        cut in any::<prop::sample::Index>(),
    ) {
        let k = cut.index(xs.len() - 1) + 1;
        let mut bulk = QuantileSketch::new();
        for &x in &xs {
            bulk.add(x);
        }
        let mut a = QuantileSketch::new();
        for &x in &xs[..k] {
            a.add(x);
        }
        let mut b = QuantileSketch::new();
        for &x in &xs[k..] {
            b.add(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), bulk.count());
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(a.quantile(p).to_bits(), bulk.quantile(p).to_bits());
        }
    }

    /// The pinned-order merge contract for `Summary`: partials computed
    /// in *any* worker order, folded by `merge_all` in pinned shard
    /// order, are bit-exact — the fold is a pure function of the ordered
    /// parts list, so worker interleaving (simulated here by computing
    /// the shards in a permuted order before slotting them back) cannot
    /// perturb even the low bits of `mean`/`m2`.
    #[test]
    fn summary_merge_all_pinned_order_is_interleaving_invariant(
        xs in proptest::collection::vec(-1e5f64..1e5, 1..200),
        parts in 1usize..8,
        swaps in proptest::collection::vec(any::<prop::sample::Index>(), 1..16),
    ) {
        let chunks: Vec<&[f64]> = xs.chunks(xs.len().div_ceil(parts)).collect();
        // Workers finishing in index order.
        let in_order: Vec<Summary> = chunks.iter().map(|c| Summary::of(c)).collect();
        // Workers finishing in an arbitrary permuted order, each result
        // placed back into its shard's slot.
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        for i in (1..order.len()).rev() {
            let j = swaps[i % swaps.len()].index(i + 1);
            order.swap(i, j);
        }
        let mut slots: Vec<Option<Summary>> = vec![None; chunks.len()];
        for &s in &order {
            slots[s] = Some(Summary::of(chunks[s]));
        }
        let interleaved: Vec<Summary> = slots.into_iter().map(Option::unwrap).collect();
        let a = Summary::merge_all(in_order.iter());
        let b = Summary::merge_all(interleaved.iter());
        // Derived PartialEq over raw f64 fields: exact equality, not
        // tolerance — this is the bit-identity the referees pin.
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.count(), xs.len() as u64);
    }

    /// The merge contract for `QuantileSketch` is stronger:
    /// bucket counts are `u64`s and the stored representation is
    /// canonical, so `merge_all` is bit-exact under *any* order or
    /// grouping of the same parts — structurally equal to the bulk
    /// sketch, not just quantile-equal.
    #[test]
    fn sketch_merge_all_any_order_or_grouping_is_bit_exact(
        xs in proptest::collection::vec(1e-3f64..1e6, 1..500),
        parts in 1usize..8,
        swaps in proptest::collection::vec(any::<prop::sample::Index>(), 1..16),
    ) {
        let mut bulk = QuantileSketch::new();
        for &x in &xs {
            bulk.add(x);
        }
        let mut shard: Vec<QuantileSketch> = xs
            .chunks(xs.len().div_ceil(parts))
            .map(|c| {
                let mut s = QuantileSketch::new();
                for &x in c {
                    s.add(x);
                }
                s
            })
            .collect();
        for i in (1..shard.len()).rev() {
            let j = swaps[i % swaps.len()].index(i + 1);
            shard.swap(i, j);
        }
        let merged = QuantileSketch::merge_all(shard.iter());
        prop_assert_eq!(&merged, &bulk);
        // Regrouped: fold adjacent pairs first, then merge the partials.
        let paired: Vec<QuantileSketch> = shard
            .chunks(2)
            .map(|p| QuantileSketch::merge_all(p.iter()))
            .collect();
        let tree = QuantileSketch::merge_all(paired.iter());
        prop_assert_eq!(&tree, &bulk);
    }

    /// Sketch quantiles are monotone in the rank, like any CDF inverse.
    #[test]
    fn sketch_quantiles_monotone(
        xs in proptest::collection::vec(1e-3f64..1e6, 1..300),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut sk = QuantileSketch::new();
        for &x in &xs {
            sk.add(x);
        }
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(sk.quantile(lo) <= sk.quantile(hi) + 1e-12);
    }

    /// p-values are probabilities, symmetric in argument order, and the
    /// t statistics negate.
    #[test]
    fn welch_p_is_probability_and_symmetric(
        a in proptest::collection::vec(0.0f64..1e4, 2..40),
        b in proptest::collection::vec(0.0f64..1e4, 2..40),
    ) {
        if let (Some(r1), Some(r2)) = (welch_t_test(&a, &b), welch_t_test(&b, &a)) {
            prop_assert!((0.0..=1.0).contains(&r1.p), "p = {}", r1.p);
            prop_assert!((r1.t + r2.t).abs() < 1e-9 * (1.0 + r1.t.abs()));
            prop_assert!((r1.p - r2.p).abs() < 1e-9);
            prop_assert!(r1.df > 0.0);
        }
    }

    /// Shifting one sample set away monotonically shrinks (or holds) the
    /// p-value.
    #[test]
    fn p_shrinks_with_separation(
        base in proptest::collection::vec(0.0f64..100.0, 3..30),
        shift in 1.0f64..50.0,
    ) {
        let near: Vec<f64> = base.iter().map(|x| x + shift).collect();
        let far: Vec<f64> = base.iter().map(|x| x + 10.0 * shift).collect();
        if let (Some(rn), Some(rf)) = (welch_t_test(&base, &near), welch_t_test(&base, &far)) {
            prop_assert!(rf.p <= rn.p + 1e-9, "{} > {}", rf.p, rn.p);
        }
    }

    /// The incomplete beta is a CDF in x: monotone, 0 at 0, 1 at 1.
    #[test]
    fn incomplete_beta_is_cdf(a in 0.2f64..20.0, b in 0.2f64..20.0, x1 in 0.0f64..1.0, x2 in 0.0f64..1.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let f_lo = incomplete_beta(a, b, lo);
        let f_hi = incomplete_beta(a, b, hi);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f_lo));
        prop_assert!(f_lo <= f_hi + 1e-9);
    }

    /// Student-t two-sided p decreases in |t| and increases toward 1 at 0.
    #[test]
    fn student_t_monotone(df in 1.0f64..100.0, t1 in 0.0f64..20.0, t2 in 0.0f64..20.0) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(
            student_t_two_sided_p(hi, df) <= student_t_two_sided_p(lo, df) + 1e-9
        );
        prop_assert!((student_t_two_sided_p(0.0, df) - 1.0).abs() < 1e-9);
    }

    /// Percentiles lie within [min, max] and are monotone in the rank.
    #[test]
    fn percentiles_ordered(xs in proptest::collection::vec(-1e4f64..1e4, 1..80)) {
        let p25 = percentile(&xs, 25.0);
        let p50 = median(&xs);
        let p75 = percentile(&xs, 75.0);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo <= p25 && p25 <= p50 && p50 <= p75 && p75 <= hi);
    }

    /// A comparison's verdict is never a win when the two sample sets are
    /// identical.
    #[test]
    fn identical_samples_never_win(xs in proptest::collection::vec(1.0f64..1e4, 2..30)) {
        let c = Comparison::lower_is_better(&xs, &xs);
        prop_assert_eq!(c.verdict, Verdict::Inconclusive);
        prop_assert!(c.percent.abs() < 1e-9);
    }

    /// Welch's t is antisymmetric under swapping the two sample sets
    /// (t → -t, identical p and df) and invariant under scaling both sets
    /// by a common positive factor — the statistic is dimensionless, so
    /// measuring PLT in seconds vs milliseconds cannot change a verdict.
    #[test]
    fn welch_swap_antisymmetric_and_scale_invariant(
        a in proptest::collection::vec(1.0f64..1e4, 2..40),
        b in proptest::collection::vec(1.0f64..1e4, 2..40),
        scale in 1e-3f64..1e3,
    ) {
        let sa: Vec<f64> = a.iter().map(|x| x * scale).collect();
        let sb: Vec<f64> = b.iter().map(|x| x * scale).collect();
        if let (Some(ab), Some(ba), Some(scaled)) =
            (welch_t_test(&a, &b), welch_t_test(&b, &a), welch_t_test(&sa, &sb))
        {
            // Antisymmetry under swap.
            prop_assert!((ab.t + ba.t).abs() < 1e-9 * (1.0 + ab.t.abs()));
            prop_assert!((ab.p - ba.p).abs() < 1e-9);
            prop_assert!((ab.df - ba.df).abs() < 1e-9 * (1.0 + ab.df));
            // Invariance under common positive scaling.
            prop_assert!(
                (ab.t - scaled.t).abs() < 1e-6 * (1.0 + ab.t.abs()),
                "t {} vs {} at scale {}", ab.t, scaled.t, scale
            );
            prop_assert!((ab.df - scaled.df).abs() < 1e-6 * (1.0 + ab.df));
            prop_assert!((ab.p - scaled.p).abs() < 1e-6);
        }
    }

    /// Clopper–Pearson binomial intervals always lie in [0, 1], are
    /// properly ordered, and contain the point estimate `s/n`.
    #[test]
    fn binomial_ci_contains_point_estimate(
        trials in 1u64..400,
        s_pick in any::<prop::sample::Index>(),
        alpha in 0.001f64..0.5,
    ) {
        let successes = s_pick.index(trials as usize + 1) as u64;
        let (lo, hi) = binomial_ci(successes, trials, alpha);
        let p_hat = successes as f64 / trials as f64;
        prop_assert!((0.0..=1.0).contains(&lo), "lo = {lo}");
        prop_assert!((0.0..=1.0).contains(&hi), "hi = {hi}");
        prop_assert!(lo <= hi, "({lo}, {hi})");
        prop_assert!(lo <= p_hat + 1e-12 && p_hat <= hi + 1e-12,
            "({lo}, {hi}) misses p̂ = {p_hat} at s = {successes}, n = {trials}");
        // Tighter alpha (more confidence) can only widen the interval.
        let (lo2, hi2) = binomial_ci(successes, trials, alpha / 2.0);
        prop_assert!(lo2 <= lo + 1e-12 && hi <= hi2 + 1e-12);
    }

    /// Heatmap cell classification is a function of the sample *sets*,
    /// not their order: permuting each side's samples reproduces the exact
    /// same percent, p-value and verdict. (Welch's statistic is computed
    /// from exact streaming summaries, so this holds bit-for-bit modulo
    /// float summation tolerance.)
    #[test]
    fn heatmap_cell_stable_under_permutation(
        a in proptest::collection::vec(1.0f64..1e4, 2..40),
        b in proptest::collection::vec(1.0f64..1e4, 2..40),
        swaps in proptest::collection::vec(any::<prop::sample::Index>(), 1..64),
    ) {
        let cell = HeatmapCell::from_comparison(&Comparison::lower_is_better(&a, &b));
        let pa = permuted(&a, &swaps);
        let pb = permuted(&b, &swaps);
        // Permutation really happened on the same multiset.
        let mut sa = a.clone(); let mut spa = pa.clone();
        sa.sort_by(f64::total_cmp); spa.sort_by(f64::total_cmp);
        prop_assert_eq!(sa, spa);
        let pcell = HeatmapCell::from_comparison(&Comparison::lower_is_better(&pa, &pb));
        prop_assert_eq!(cell.verdict, pcell.verdict);
        prop_assert!((cell.percent - pcell.percent).abs() < 1e-6 * (1.0 + cell.percent.abs()));
        match (cell.p_value, pcell.p_value) {
            (Some(p1), Some(p2)) => prop_assert!((p1 - p2).abs() < 1e-6),
            (n1, n2) => prop_assert_eq!(n1, n2),
        }
    }
}
