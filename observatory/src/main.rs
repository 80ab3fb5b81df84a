//! `observatory` — the repo's benchmark: five serial workloads, four
//! end-to-end metrics, outside-in layer rungs. See README.md.

mod alloc;
mod contract;
mod estimate;
mod measure;
mod meter;
mod report;
mod rungs;
mod spans;
mod workloads;
mod yardstick;

use measure::RunConfig;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 2017;

const USAGE: &str =
    "usage: observatory [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --spans] [--aa N]
  no --workload   run all five workloads
  --trace 1       per-layer metrics (spans pass + micro-rungs); writes the span file
  --aa N          A/A check: N runs per set, alternating, same binary";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    cold: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        cold: None,
        seed: DEFAULT_SEED,
        seconds: contract::RUN_SECONDS,
        trace: false,
        aa: None,
    };
    let workload = |v: String| Workload::from_name(&v).ok_or(format!("unknown workload {v:?}"));
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(workload(value()?)?),
            "--cold" => a.cold = Some(workload(value()?)?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--spans" => a.trace = true,
            "--aa" => {
                let n: usize = value()?.parse().map_err(|e| format!("--aa: {e}"))?;
                if n == 0 {
                    return Err("--aa needs at least 1 run per set".to_string());
                }
                a.aa = Some(n);
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

/// The measured configuration is always the defaults (wheel scheduler,
/// structured wire, batch on, trace off): refuse to start under any knob.
fn knobs_set() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LONGLOOK_"))
        .collect()
}

/// What is being measured and where: the resolved execution modes (always
/// the defaults, see [`knobs_set`]) and the host's thread count. With
/// `full`, also the CPU model and the commit, which are read from outside
/// the working directory and so left out of single-workload runs.
fn header(args: &Args, full: bool) -> String {
    let mut out = format!(
        "observatory: seed {} seconds {} trace {}\nconfig: sched {:?} wire {:?} batch {:?} trace {:?} (defaults; no LONGLOOK_* variable is set)\nhost: nproc {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        longlook_sim::SchedKind::from_env(),
        longlook_sim::WireMode::from_env(),
        longlook_sim::BatchMode::from_env(),
        longlook_sim::TraceMode::from_env(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    if full {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        out.push_str(&format!(", cpu {cpu:?}, commit {commit}"));
    }
    out
}

/// Where the span file goes: under the build directory, which the
/// repository ignores.
fn span_path() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("observatory")
        .join("spans.json")
}

fn write_spans(groups: &[(Workload, Vec<spans::Span>)]) -> Result<std::path::PathBuf, String> {
    let path = span_path();
    let dir = path.parent().expect("span path has a parent");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let named: Vec<(&str, &[spans::Span])> = groups
        .iter()
        .map(|(w, s)| (w.name(), s.as_slice()))
        .collect();
    std::fs::write(&path, spans::to_json(&named))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// One run of every workload in a child process each, as the driver
/// makes them; returns (workload, metric) -> value.
fn child_runs(seed: u64, seconds: f64) -> Result<Vec<(Workload, &'static str, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut out = Vec::new();
    for w in Workload::ALL {
        let o = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--trace", "0"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let text = String::from_utf8_lossy(&o.stdout);
        let line = text.lines().last().unwrap_or("");
        if !o.status.success() || report::failed_in(line) != Some(0) {
            return Err(format!("{} seed {seed}: run failed: {line}", w.name()));
        }
        for (m, _, _) in contract::END_TO_END {
            let v = report::metric_in(line, m)
                .ok_or_else(|| format!("{} seed {seed}: no {m} in {line}", w.name()))?;
            out.push((w, m, v));
        }
    }
    Ok(out)
}

/// `--aa N`: the same binary measured as set A and set B, N runs each,
/// alternating, run i of both sets on seed + i. Prints each end-to-end
/// metric's two medians, quartiles, spreads and relative gap per
/// workload; fails if a gap exceeds the metric's bound.
fn aa(n: usize, args: &Args) -> Result<bool, String> {
    println!("{}", header(args, true));
    println!(
        "A/A: {n} runs per set, alternating A B A B ..., run i of both sets on seed {} + i",
        args.seed
    );
    let mut sets: [Vec<(Workload, &'static str, f64)>; 2] = [Vec::new(), Vec::new()];
    for i in 0..2 * n {
        let seed = args.seed + (i / 2) as u64;
        sets[i % 2].extend(child_runs(seed, args.seconds)?);
        eprintln!("A/A: run {} of {} done", i + 1, 2 * n);
    }
    let mut ok = true;
    println!(
        "{:<13} {:<13} {:>34} {:>7} {:>34} {:>7} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A: q1 / median / q3",
        "spread",
        "B: q1 / median / q3",
        "spread",
        "gap",
        "bound"
    );
    for w in Workload::ALL {
        for (m, _, bound) in contract::END_TO_END {
            let pick = |set: &[(Workload, &'static str, f64)]| -> Vec<f64> {
                set.iter()
                    .filter(|(sw, sm, _)| *sw == w && *sm == m)
                    .map(|(_, _, v)| *v)
                    .collect()
            };
            let (a, b) = (pick(&sets[0]), pick(&sets[1]));
            let (ma, mb) = (estimate::median(&a), estimate::median(&b));
            let gap = mb / ma - 1.0;
            let pass = gap.abs() <= bound;
            ok &= pass;
            let summary = |xs: &[f64], med: f64| {
                let (q1, q3) = estimate::quartiles(xs);
                format!("{q1:.4} / {med:.4} / {q3:.4}")
            };
            println!(
                "{:<13} {:<13} {:>34} {:>7.4} {:>34} {:>7.4} {:>+8.4} {:>6.2}  {}",
                w.name(),
                m,
                summary(&a, ma),
                estimate::spread(&a),
                summary(&b, mb),
                estimate::spread(&b),
                gap,
                bound,
                if pass { "ok" } else { "EXCEEDS BOUND" }
            );
        }
    }
    println!(
        "A/A: {}",
        if ok {
            "every gap within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("observatory: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "observatory: refusing to measure with {} set: the benchmark runs the default configuration only",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Some(w) = args.cold {
        measure::cold_child(w, args.seed);
        return ExitCode::SUCCESS;
    }
    if let Some(n) = args.aa {
        return match aa(n, &args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("observatory: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let which: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    println!("{}", header(&args, args.workload.is_none()));
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut ok = true;
    let mut spans = Vec::new();
    // One result line per workload, each the last thing printed for it:
    // a single-workload run ends on the line the contract asks for.
    for w in which {
        let run = if args.trace {
            measure::per_layer(w, cfg).map(|(rep, s)| {
                spans.push((w, s));
                rep
            })
        } else {
            measure::end_to_end(w, cfg)
        };
        match run {
            Ok(rep) => {
                ok &= rep.correct();
                print!("{}", rep.human());
                if args.trace {
                    match write_spans(&spans) {
                        Ok(p) => println!("{} # spans written to {}", w.name(), p.display()),
                        Err(e) => {
                            eprintln!("observatory: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                println!("{}", rep.json_line());
            }
            Err(e) => {
                eprintln!("observatory: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
