//! Measuring one pass: every segment of a pass (a cell, a figure's sweep,
//! a fleet run) is timed, its allocations counted, and bracketed by two
//! yardstick samples.

use crate::{alloc, yardstick};
use std::time::Instant;

/// One measured segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Host wall-clock of the segment, seconds.
    pub secs: f64,
    /// Yardstick sample taken right before it, seconds.
    pub y_before: f64,
    /// Yardstick sample taken right after it, seconds.
    pub y_after: f64,
    /// Heap allocations made inside it.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
    /// Peak live heap inside it above what was live when it began, bytes.
    pub peak: i64,
}

/// What a pass's segments add up to.
#[derive(Debug, Clone, PartialEq)]
pub struct PassCost {
    /// Sum of the segments' wall-clock, as measured.
    pub raw_s: f64,
    /// Sum of the segments' wall-clock, each restated in reference-host
    /// seconds by its own two yardstick samples.
    pub norm_s: f64,
    /// Allocations in the pass.
    pub allocs: u64,
    /// Bytes allocated in the pass.
    pub alloc_bytes: u64,
    /// Highest live heap any segment reached, bytes.
    pub peak: i64,
    /// Mean of the yardstick samples around the pass's segments, seconds.
    pub yardstick_s: f64,
    /// Each segment's wall-clock in reference-host seconds, in order.
    pub segment_norm_s: Vec<f64>,
}

/// Reference-host seconds of one pass, from several: the median of each
/// segment over the passes, summed. A pass is the same segments in the
/// same order every time, so one disturbed segment costs its own sample
/// and not the whole pass it happened to fall in.
pub fn pass_seconds(costs: &[PassCost]) -> f64 {
    segment_seconds(costs).iter().sum()
}

/// Each segment's median over the passes, reference-host seconds.
pub fn segment_seconds(costs: &[PassCost]) -> Vec<f64> {
    let segments = costs.first().map_or(0, |c| c.segment_norm_s.len());
    (0..segments)
        .map(|i| {
            let xs: Vec<f64> = costs.iter().map(|c| c.segment_norm_s[i]).collect();
            crate::estimate::median(&xs)
        })
        .collect()
}

/// Segment meter. Switched off it is a plain call-through, which is what
/// the checks, the spans passes and the tests use.
#[derive(Debug, Default)]
pub struct Meter {
    on: bool,
    /// The sample that closed the previous segment doubles as the one
    /// that opens the next: nothing runs in between.
    carried: Option<f64>,
    segments: Vec<Segment>,
}

impl Meter {
    /// A meter that measures (`on`) or only calls through.
    pub fn new(on: bool) -> Self {
        Meter {
            on,
            ..Meter::default()
        }
    }

    /// Run `f` as one segment.
    pub fn segment<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let y_before = self.carried.take().unwrap_or_else(yardstick::sample);
        alloc::reset();
        let held = alloc::snapshot().live;
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        let snap = alloc::snapshot();
        let y_after = yardstick::sample();
        self.carried = Some(y_after);
        self.segments.push(Segment {
            secs,
            y_before,
            y_after,
            allocs: snap.allocs,
            alloc_bytes: snap.bytes,
            // Above what the harness itself holds (inputs, results so
            // far): that grows with the number of passes a run fits in,
            // and the measured code's peak must not.
            peak: snap.peak - held,
        });
        r
    }

    /// Forget the carried yardstick sample: something else ran since.
    pub fn interrupt(&mut self) {
        self.carried = None;
    }

    /// Close the pass: total up its segments and start a new one.
    pub fn finish_pass(&mut self) -> PassCost {
        let cost = total(&self.segments);
        self.segments.clear();
        cost
    }
}

fn total(segments: &[Segment]) -> PassCost {
    let n = segments.len().max(1) as f64;
    let segment_norm_s: Vec<f64> = segments
        .iter()
        .map(|s| yardstick::normalise(s.secs, s.y_before, s.y_after))
        .collect();
    PassCost {
        raw_s: segments.iter().map(|s| s.secs).sum(),
        norm_s: segment_norm_s.iter().sum(),
        allocs: segments.iter().map(|s| s.allocs).sum(),
        alloc_bytes: segments.iter().map(|s| s.alloc_bytes).sum(),
        peak: segments.iter().map(|s| s.peak).max().unwrap_or(0),
        yardstick_s: segments
            .iter()
            .map(|s| (s.y_before + s.y_after) / 2.0)
            .sum::<f64>()
            / n,
        segment_norm_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yardstick::REFERENCE_S;

    fn seg(secs: f64, y: f64, allocs: u64, peak: i64) -> Segment {
        Segment {
            secs,
            y_before: y,
            y_after: y,
            allocs,
            alloc_bytes: allocs * 10,
            peak,
        }
    }

    #[test]
    fn totals_normalise_each_segment_by_its_own_samples() {
        // Second segment ran on a host 50 % slow: same work, 1.5x the time.
        let c = total(&[
            seg(1.0, REFERENCE_S, 5, 100),
            seg(1.5, REFERENCE_S * 1.5, 7, 300),
        ]);
        assert!((c.raw_s - 2.5).abs() < 1e-12);
        assert!((c.norm_s - 2.0).abs() < 1e-12);
        assert_eq!((c.allocs, c.alloc_bytes, c.peak), (12, 120, 300));
        assert!((c.yardstick_s - REFERENCE_S * 1.25).abs() < 1e-12);
        assert_eq!(c.segment_norm_s.len(), 2);
    }

    #[test]
    fn pass_seconds_takes_each_segment_at_its_median() {
        let pass = |a: f64, b: f64| total(&[seg(a, REFERENCE_S, 0, 0), seg(b, REFERENCE_S, 0, 0)]);
        // One disturbed sample per segment, in different passes: a median
        // of pass sums would keep one of them, the per-segment one drops
        // both.
        let costs = [pass(1.0, 2.0), pass(1.9, 2.0), pass(1.0, 2.9)];
        assert!((pass_seconds(&costs) - 3.0).abs() < 1e-12);
        let sums: Vec<f64> = costs.iter().map(|c| c.norm_s).collect();
        assert!(crate::estimate::median(&sums) > 3.8);
    }

    #[test]
    fn an_off_meter_only_calls_through() {
        let mut m = Meter::new(false);
        assert_eq!(m.segment(|| 7), 7);
        let c = m.finish_pass();
        assert_eq!((c.raw_s, c.allocs), (0.0, 0));
    }

    #[test]
    fn an_on_meter_counts_the_segment_and_chains_samples() {
        let mut m = Meter::new(true);
        let v = m.segment(|| std::hint::black_box(vec![0u8; 4096]));
        m.segment(|| drop(v));
        assert_eq!(m.segments.len(), 2);
        assert_eq!(m.segments[0].allocs, 1);
        assert_eq!(m.segments[0].alloc_bytes, 4096);
        assert_eq!(m.segments[1].allocs, 0);
        assert_eq!(
            m.segments[0].y_after, m.segments[1].y_before,
            "one sample closes a segment and opens the next"
        );
        let c = m.finish_pass();
        assert!(c.raw_s > 0.0 && c.norm_s > 0.0);
        assert!(m.segments.is_empty());
    }
}
