//! The yardstick: a fixed piece of harness-owned work timed right before
//! and after every measured segment, so that a segment's time can be
//! stated relative to how fast the host was running *while it ran*.
//!
//! Why it exists. On the shared 2-vCPU hosts this benchmark runs on, host
//! speed moves between levels about 30 % apart (a fast one in sub-second
//! blips, a usual one, a slow one that lasts tens of seconds) with no
//! change in CPU time accounting: the whole guest just runs slower. Raw
//! wall-clock of the same binary then spreads 10-25 % run to run, whatever
//! order statistic is taken, because a slow period outlasts a run. The
//! yardstick slows down with the simulator, so their ratio does not: on
//! recorded series the ratio spreads 2-5 %. See README.md, "Noise".
//!
//! What it is. A miniature discrete-event simulation with the simulator's
//! instruction mix — a heap scheduler, per-flow deques of in-flight
//! packets, boxed `dyn` dispatch, short-lived allocations, ordered-map
//! updates — and none of its code: only `std`. A change to any longlook
//! crate cannot speed it up or slow it down, which is what lets it serve
//! as the unit. A cache-resident arithmetic loop tracked the simulator
//! worse (it shrugs off the slow level, which the simulator does not).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::time::Instant;

/// Events one yardstick sample processes (about 40 ms on the recording
/// host class).
const EVENTS: u64 = 400_000;

/// What one yardstick sample takes on the recording host class (Xeon
/// 2.1 GHz, 2 shared vCPUs) at its usual speed level. Normalised seconds
/// are seconds on a host that runs the yardstick in exactly this time.
pub const REFERENCE_S: f64 = 0.0390;

trait Agent {
    fn on_event(&mut self, now: u64, x: u64, out: &mut Vec<(u64, u32)>);
    fn acked(&self) -> u64;
}

struct Pkt {
    pn: u64,
    sent: u64,
    size: u32,
    frames: Vec<(u64, u32)>,
}

struct Flow {
    id: u32,
    next_pn: u64,
    inflight: VecDeque<Pkt>,
    cwnd: u64,
    bytes: u64,
    acked: u64,
    rtts: BTreeMap<u64, u64>,
}

const MSS: u64 = 1350;

impl Agent for Flow {
    fn on_event(&mut self, now: u64, x: u64, out: &mut Vec<(u64, u32)>) {
        // Ack the oldest packet, grow the window, refill it.
        if let Some(p) = self.inflight.pop_front() {
            self.acked += u64::from(p.size);
            self.bytes -= u64::from(p.size);
            self.rtts.insert(p.pn & 63, now - p.sent);
            if self.rtts.len() > 48 {
                self.rtts.pop_first();
            }
            self.cwnd += (p.frames.len() as u64 * MSS * MSS) / self.cwnd.max(1);
        }
        while self.bytes + MSS <= self.cwnd.min(430 * MSS) {
            let pn = self.next_pn;
            self.next_pn += 1;
            self.inflight.push_back(Pkt {
                pn,
                sent: now,
                size: MSS as u32,
                frames: vec![(pn * MSS, MSS as u32), (x, 16)],
            });
            self.bytes += MSS;
            out.push((now + 36_000_000 + (x ^ pn) % 1_000_000, self.id));
        }
    }

    fn acked(&self) -> u64 {
        self.acked
    }
}

fn run(events: u64) -> u64 {
    let mut agents: Vec<Box<dyn Agent>> = (0..4)
        .map(|id| {
            Box::new(Flow {
                id,
                next_pn: 0,
                inflight: VecDeque::new(),
                cwnd: 32 * MSS,
                bytes: 0,
                acked: 0,
                rtts: BTreeMap::new(),
            }) as Box<dyn Agent>
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut out = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for id in 0..4u32 {
        heap.push(Reverse((u64::from(id), seq, id)));
        seq += 1;
    }
    for _ in 0..events {
        let Some(Reverse((now, _, id))) = heap.pop() else {
            break;
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        agents[id as usize].on_event(now, x, &mut out);
        for (t, id) in out.drain(..) {
            heap.push(Reverse((t, seq, id)));
            seq += 1;
        }
    }
    agents.iter().map(|a| a.acked()).sum()
}

/// Time one yardstick sample, in seconds.
pub fn sample() -> f64 {
    let t = Instant::now();
    std::hint::black_box(run(std::hint::black_box(EVENTS)));
    t.elapsed().as_secs_f64()
}

/// `secs` measured between yardstick samples `before` and `after`,
/// restated in reference-host seconds.
pub fn normalise(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_yardstick_does_fixed_work() {
        assert_eq!(run(10_000), run(10_000));
        assert!(run(20_000) > run(10_000), "work grows with the event count");
    }

    #[test]
    fn normalising_cancels_a_uniform_slowdown() {
        // A host running 30 % slow stretches segment and yardstick alike.
        let quiet = normalise(2.0, REFERENCE_S, REFERENCE_S);
        let slow = normalise(2.0 * 1.3, REFERENCE_S * 1.3, REFERENCE_S * 1.3);
        assert!((quiet - 2.0).abs() < 1e-12);
        assert!((slow - 2.0).abs() < 1e-12);
        // A level change mid-segment is split between the two samples.
        let mixed = normalise(2.0 * 1.15, REFERENCE_S, REFERENCE_S * 1.3);
        assert!((mixed - 2.0).abs() < 1e-9);
    }
}
