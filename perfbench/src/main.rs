//! `perfbench` — runs one workload and prints its result.
//!
//! ```text
//! perfbench --workload <plan|serve-small|serve-large> --seed <N>
//!           --seconds <S> --trace <0|1>
//! ```
//!
//! Diagnostics go to stdout as `# ` lines; the last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). Exit codes: 0 = all checks passed, 1 = a correctness
//! check failed (the result line is still printed) or the run could
//! not complete (no result line), 2 = usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::{plan, report::Outcome, serve};

/// Scratch space for daemon state, replay stores and traces, relative
/// to the directory the benchmark runs in.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: u64 = value()?
                    .parse()
                    .map_err(|_| "--seconds must be an integer")?;
                if s == 0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag \"{other}\"")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The `fcm-serve` binary built next to this one.
fn serve_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("fcm-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found; build it first (see run.py)",
            bin.display()
        ))
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = serve::fresh_dir(Path::new(WORK_ROOT), &args.workload)?;
    if args.trace {
        fcm_obs::init(fcm_obs::ObsConfig {
            ring_capacity: 1 << 18,
        });
        fcm_obs::set_enabled(false);
    }
    let spec = match args.workload.as_str() {
        "plan" => None,
        "serve-small" => Some(serve::SMALL),
        "serve-large" => Some(serve::LARGE),
        other => {
            return Err(format!(
                "unknown workload \"{other}\" (plan, serve-small, serve-large)"
            ))
        }
    };
    let mut outcome = match spec {
        None => plan::run(args.seed, args.seconds, args.trace),
        Some(spec) => serve::run(
            &spec,
            &serve_bin()?,
            &work,
            args.seed,
            args.seconds,
            args.trace,
        )?,
    };
    outcome.select(args.trace);
    if args.trace {
        let path = work.join("trace.jsonl");
        fcm_obs::export::export_to(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "# spans written to {} (render with obsview)",
            path.display()
        );
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <plan|serve-small|serve-large> --seed <N> --seconds <S> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            for m in &outcome.mismatches {
                eprintln!("perfbench: check failed: {m}");
            }
            println!("{}", outcome.result_line());
            if outcome.mismatches.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
