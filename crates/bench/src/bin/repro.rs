//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro list            # show all experiment ids
//! repro fig6a           # run one experiment, print + save to results/
//! repro all             # run everything
//! repro -j 4 fig6a      # shard experiment cells across 4 threads
//! repro --rounds 3 fig8  # 3 rounds per measurement: a quick smoke run
//! repro -j 4 --timing fig6a   # also print per-batch scheduler reports
//! repro trauma results/trauma/repro_17.json   # replay a traumafuzz repro
//! ```
//!
//! The flags build one [`RunConfig`], handed to every experiment.
//! `--rounds N` sets the rounds per measurement (default 10, the paper's
//! "at least 10"). Experiment cells are sharded across `-j N` worker
//! threads (default: all hardware threads; `0` or `1` run serially) in
//! auto-tuned chunks — results are bit-identical to a serial run at any
//! worker count. With `--timing`, every scheduler batch prints a
//! `RunnerReport`: elapsed vs summed cell time (achieved speedup),
//! per-worker cells/chunks claimed, and the slowest cells.

use longlook_bench::report::Report;
use longlook_bench::{RunConfig, EXPERIMENTS};
use longlook_core::runner::{self, Parallelism};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: repro [-j N] [--rounds N] [--timing] <experiment-id>|list|all");
    eprintln!("       repro trauma <repro.json>   # replay a traumafuzz repro file");
    eprintln!("       repro trace <file>          # analyze a trace (.jsonseq or a repro");
    eprintln!("                                   # file with an embedded trace): timeline,");
    eprintln!("                                   # per-state dwell, loss episodes");
    eprintln!("  -j N        shard cells across N threads (0 or 1 = serial)");
    eprintln!("  --rounds N  rounds per measurement (default 10)");
    eprintln!("  --timing    print a scheduler report per batch (jobs, chunk, speedup)");
    eprintln!("experiments:");
    for (id, desc, _) in EXPERIMENTS {
        eprintln!("  {id:<18} {desc}");
    }
    std::process::exit(2);
}

/// Save a report's render (`body`) to `dir/<id>.txt` and each of its
/// machines' DOT graphs to `dir/<id>_<n>.dot`. An error names the path
/// that could not be written.
fn save(dir: &Path, report: &Report, body: &str) -> Result<(), (PathBuf, std::io::Error)> {
    let write = |path: PathBuf, text: &str| std::fs::write(&path, text).map_err(|e| (path, e));
    let id = report.id;
    std::fs::create_dir_all(dir).map_err(|e| (dir.to_path_buf(), e))?;
    write(dir.join(format!("{id}.txt")), body)?;
    for (n, dot) in report.dots().iter().enumerate() {
        write(dir.join(format!("{id}_{n}.dot")), dot)?;
    }
    Ok(())
}

fn print_timing(id: &str) {
    let reports = runner::take_timing_reports();
    if reports.is_empty() {
        return;
    }
    eprintln!("[{id}: {} scheduler batch(es)]", reports.len());
    for (k, rep) in reports.iter().enumerate() {
        eprintln!("  batch {k}: {}", rep.render());
    }
}

/// What the flags before the command set, and the arguments after them.
struct Flags<'a> {
    cfg: RunConfig,
    timing: bool,
    rest: &'a [String],
}

/// Read the flags, in any order, before the command. `hardware` is the
/// worker count without `-j`. A flag without its value, a junk value or
/// `--rounds 0` is an error naming the flag.
fn parse_flags(args: &[String], hardware: Parallelism) -> Result<Flags<'_>, String> {
    let mut flags = Flags {
        cfg: RunConfig {
            par: hardware,
            rounds: RunConfig::DEFAULT_ROUNDS,
        },
        timing: false,
        rest: args,
    };
    while let Some(flag) = flags.rest.first() {
        let value = || {
            flags
                .rest
                .get(1)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "-j" => {
                let v = value()?;
                flags.cfg.par = match v.parse::<usize>() {
                    Ok(0 | 1) => Parallelism::Serial,
                    Ok(n) => Parallelism::Threads(n),
                    Err(_) => return Err(format!("-j takes a thread count, not {v:?}")),
                };
                flags.rest = &flags.rest[2..];
            }
            "--rounds" => {
                let v = value()?;
                flags.cfg.rounds = v
                    .parse::<u64>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("--rounds takes a positive integer, not {v:?}"))?;
                flags.rest = &flags.rest[2..];
            }
            "--timing" => {
                flags.timing = true;
                flags.rest = &flags.rest[1..];
            }
            _ => break,
        }
    }
    Ok(flags)
}

fn run_one(run: fn(&RunConfig) -> Report, cfg: &RunConfig, timing: bool) {
    let started = Instant::now();
    let report = run(cfg);
    let (id, body) = (report.id, report.to_string());
    println!("==================== {id} ====================");
    println!("{body}");
    if timing {
        print_timing(id);
    }
    println!(
        "[{id} completed in {:.1}s]\n",
        started.elapsed().as_secs_f64()
    );
    if let Err((path, e)) = save(Path::new("results"), &report, &body) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Flags {
        cfg,
        timing,
        rest: args,
    } = parse_flags(&args, Parallelism::auto()).unwrap_or_else(|msg| {
        eprintln!("repro: {msg}");
        usage()
    });
    runner::set_timing(timing);
    eprintln!(
        "[parallelism: {} worker thread(s); override with -j N]",
        cfg.par.jobs(),
    );
    match args.first().map(String::as_str) {
        None | Some("list") => usage(),
        // `repro trauma` with no file runs the trauma *experiment* (the
        // generic arm below); with a file it replays a shrunk repro.
        // Replay a shrunk traumafuzz repro file: exit 0 iff the recorded
        // oracle violation reproduces.
        Some("trauma") if args.len() >= 2 => {
            std::process::exit(longlook_bench::fuzz::replay_file(&args[1]));
        }
        // Analyze a captured structured trace: either a raw JSON-SEQ
        // `.jsonseq` file or a traumafuzz repro JSON carrying one in its
        // "trace" field. Renders the timeline, the per-state dwell table,
        // and extracted loss episodes with fault-window attribution.
        Some("trace") if args.len() >= 2 => {
            let path = &args[1];
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            let records = match longlook_sim::trace::parse_seq(&text) {
                Ok(r) => r,
                Err(seq_err) => match longlook_bench::fuzz::parse_repro(&text) {
                    Ok(case) => match case.trace.as_deref() {
                        Some(t) => longlook_sim::trace::parse_seq(t).unwrap_or_else(|e| {
                            eprintln!("embedded trace in {path} is malformed: {e}");
                            std::process::exit(2);
                        }),
                        None => {
                            eprintln!("{path} is a repro file without an embedded trace");
                            std::process::exit(2);
                        }
                    },
                    Err(_) => {
                        eprintln!("cannot parse {path} as JSON-SEQ trace: {seq_err}");
                        std::process::exit(2);
                    }
                },
            };
            print!("{}", longlook_core::traceview::render_report(&records));
        }
        Some("all") => {
            let started = Instant::now();
            for (_, _, run) in EXPERIMENTS {
                run_one(*run, &cfg, timing);
            }
            println!(
                "[all experiments completed in {:.1}s]",
                started.elapsed().as_secs_f64()
            );
        }
        Some(id) => match EXPERIMENTS.iter().find(|(known, _, _)| *known == id) {
            Some((_, _, run)) => run_one(*run, &cfg, timing),
            None => {
                eprintln!("unknown experiment: {id}");
                usage();
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_bench::report::Machine;
    use longlook_sim::time::{Dur, Time};
    use longlook_statemachine::InferredMachine;
    use longlook_transport::ccstate::StateTrace;

    /// A machine inferred from one `Init -> SlowStart` trace.
    fn machine() -> InferredMachine {
        let trace = StateTrace {
            visits: vec![
                (Time::ZERO, "Init"),
                (Time::ZERO + Dur::from_millis(5), "SlowStart"),
            ],
            span: Dur::from_millis(10),
        };
        longlook_statemachine::infer(&[&trace])
    }

    /// `parse_flags` on a host with 8 hardware threads: the run's
    /// settings, `--timing`, and the arguments left after the flags.
    fn parse(args: &[&str]) -> Result<(RunConfig, bool, Vec<String>), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let f = parse_flags(&args, Parallelism::Threads(8))?;
        Ok((f.cfg, f.timing, f.rest.to_vec()))
    }

    #[test]
    fn flags_build_one_run_config_and_leave_the_command() {
        let cfg = |par, rounds| RunConfig { par, rounds };
        assert_eq!(
            parse(&["--rounds", "3", "-j", "2", "--timing", "fig8", "-j"]),
            Ok((
                cfg(Parallelism::Threads(2), 3),
                true,
                vec!["fig8".into(), "-j".into()]
            ))
        );
        assert_eq!(
            parse(&["list"]),
            Ok((cfg(Parallelism::Threads(8), 10), false, vec!["list".into()]))
        );
    }

    #[test]
    fn zero_or_one_jobs_run_serially() {
        for n in ["0", "1"] {
            assert_eq!(parse(&["-j", n, "all"]).unwrap().0.par, Parallelism::Serial);
        }
    }

    #[test]
    fn rounds_must_be_a_positive_integer() {
        for junk in ["0", "", "-2", "2.5", "ten", "3x", " 3"] {
            let err = parse(&["--rounds", junk, "fig8"]).unwrap_err();
            assert!(err.starts_with("--rounds"), "{junk:?}: {err}");
        }
    }

    #[test]
    fn junk_jobs_and_missing_values_are_usage_errors() {
        for args in [
            &["-j", "x", "all"][..],
            &["-j", "-1", "all"],
            &["-j"],
            &["--rounds"],
            &["--timing", "-j"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }

    #[test]
    fn save_writes_the_render_and_its_dot_blocks() {
        let dir = std::env::temp_dir().join(format!("repro-save-ok-{}", std::process::id()));
        let mut report = Report::new("fig");
        report.note("head\n");
        for (title, summary) in [("a", Some(0)), ("b", None), ("c", None)] {
            report.note("mid\n");
            let machine = machine();
            report.push(Machine {
                title,
                machine,
                summary,
            });
        }
        let body = report.to_string();
        save(&dir, &report, &body).expect("save succeeds");
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(read("fig.txt"), body);
        for (n, title) in ["a", "b", "c"].iter().enumerate() {
            let dot = read(&format!("fig_{n}.dot"));
            assert!(
                dot.starts_with(&format!("digraph \"{title}\" {{\n")),
                "{dot}"
            );
            assert!(dot.ends_with("\n}"), "{dot}");
            assert!(
                body.contains(&format!("{dot}\n")),
                "fig_{n}.dot is in the render"
            );
        }
        assert!(body.contains("also written to results/fig_0.dot"));
        assert!(!dir.join("fig_3.dot").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_fails_with_the_path_when_results_is_a_file() {
        let root = std::env::temp_dir().join(format!("repro-save-err-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let results = root.join("results");
        std::fs::write(&results, "a regular file").unwrap();
        let report = Report::new("fig6a");
        let (path, _) = save(&results, &report, "body\n").expect_err("results is not a directory");
        assert_eq!(path, results);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
