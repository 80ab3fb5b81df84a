//! `traumafuzz` — seeded fault-injection fuzzer with shrinking repros.
//!
//! ```text
//! traumafuzz --seeds 0..256                      # sweep; exit 1 on any violation
//! traumafuzz --seeds 0..64 --canary --expect-violation
//! traumafuzz --replay results/trauma/repro_17.json
//! ```
//!
//! Each seed deterministically derives a fault plan, runs a paired
//! QUIC/TCP page load twice (the second run is the determinism oracle),
//! and checks the invariant oracles. A violating seed is shrunk to a
//! minimal plan and written as a JSON repro under `results/trauma/`; the
//! file is immediately parsed back and replayed to prove it still
//! reproduces.
//!
//! `--canary` arms the seeded bug (a QUIC watchdog that gives up without
//! surfacing its error); with `--expect-violation` the exit code inverts:
//! success means the fuzzer caught the canary, shrank every repro to at
//! most 3 events, and every written repro replayed its violation.

use longlook_bench::fuzz::{
    capture_trace, fuzz_seed, parse_repro, render_repro, replay, replay_file, shrink, ReproCase,
};
use std::io::Write as _;

fn usage() -> ! {
    eprintln!("usage: traumafuzz [--seeds A..B] [--canary] [--expect-violation]");
    eprintln!("       traumafuzz --replay <repro.json>");
    eprintln!("  --seeds A..B        seed range to sweep (default 0..64)");
    eprintln!("  --canary            arm the seeded watchdog-muting bug");
    eprintln!("  --expect-violation  succeed only if a violation is caught, shrunk");
    eprintln!("                      to <=3 events, and its repro replays");
    eprintln!("  --replay FILE       replay a repro file; exit 0 iff it reproduces");
    std::process::exit(2);
}

fn parse_range(s: &str) -> Option<(u64, u64)> {
    let (a, b) = s.split_once("..")?;
    let lo: u64 = a.parse().ok()?;
    let hi: u64 = b.parse().ok()?;
    (lo < hi).then_some((lo, hi))
}

fn save_repro(case: &ReproCase) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("results").join("trauma");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("repro_{}.json", case.seed));
    let mut f = std::fs::File::create(&path).ok()?;
    f.write_all(render_repro(case).as_bytes()).ok()?;
    Some(path)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut range = (0u64, 64u64);
    let mut canary = false;
    let mut expect_violation = false;
    while let Some(flag) = args.first().cloned() {
        match flag.as_str() {
            "--seeds" => {
                if args.len() < 2 {
                    usage();
                }
                range = parse_range(&args[1]).unwrap_or_else(|| usage());
                args.drain(..2);
            }
            "--canary" => {
                canary = true;
                args.remove(0);
            }
            "--expect-violation" => {
                expect_violation = true;
                args.remove(0);
            }
            "--replay" => {
                if args.len() < 2 {
                    usage();
                }
                std::process::exit(replay_file(&args[1]));
            }
            _ => usage(),
        }
    }

    let started = std::time::Instant::now();
    let (lo, hi) = range;
    let mut violating_seeds = 0u64;
    let mut shrink_ok = true;
    let mut replay_ok = true;
    for seed in lo..hi {
        let (plan, violations) = fuzz_seed(seed, canary);
        if violations.is_empty() {
            continue;
        }
        violating_seeds += 1;
        eprintln!(
            "seed {seed}: {} violation(s) under a {}-event plan",
            violations.len(),
            plan.events.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        let small = shrink(seed, &plan, canary);
        eprintln!(
            "  shrunk {} -> {} event(s)",
            plan.events.len(),
            small.events.len()
        );
        if small.events.len() > 3 {
            shrink_ok = false;
        }
        let mut case = ReproCase {
            seed,
            canary,
            plan: small,
            trace: None,
        };
        // Attach the shrunk case's event trace so the repro file explains
        // itself (`repro trace` renders it without re-running anything).
        case.trace = Some(capture_trace(&case));
        match save_repro(&case) {
            Some(path) => eprintln!("  repro written to {}", path.display()),
            None => eprintln!("  (could not write repro file)"),
        }
        // Round-trip through the serialized form and replay: the repro
        // must stand on its own.
        let reproduced = parse_repro(&render_repro(&case))
            .map(|c| !replay(&c).is_empty())
            .unwrap_or(false);
        if !reproduced {
            replay_ok = false;
            eprintln!("  WARNING: shrunk repro did not reproduce on replay");
        }
    }
    println!(
        "traumafuzz: {} seed(s) in {:.1}s, {} violating ({})",
        hi - lo,
        started.elapsed().as_secs_f64(),
        violating_seeds,
        if canary { "canary armed" } else { "canary off" },
    );

    let ok = if expect_violation {
        violating_seeds > 0 && shrink_ok && replay_ok
    } else {
        violating_seeds == 0
    };
    if !ok {
        if expect_violation && violating_seeds == 0 {
            eprintln!("expected a violation but the sweep came back clean");
        }
        std::process::exit(1);
    }
}
