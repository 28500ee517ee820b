//! `perfbench` — the repository's benchmark: four closed-loop workloads
//! over the runtime's public API, end-to-end metrics from untraced runs and
//! a per-layer split from a separate traced run.
//!
//! ```text
//! perfbench --workload <launch-storm|table2-sweep|serve-mix|fig9-chain>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. `README.md` beside this package records why each
//! workload and metric exists and what each layer metric should move.

mod chain;
mod common;
mod counts;
mod drive;
mod probe;
mod report;
mod serve;
mod storm;
mod sweep;

use common::Host;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

pub const WORKLOADS: [&str; 4] = ["launch-storm", "table2-sweep", "serve-mix", "fig9-chain"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&val.as_str()) => workload = Some(val.clone()),
            "--workload" => return Err(format!("unknown workload {val:?}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    // The runtime reads CL_* variables (tracing, tuning, timeouts, seeded
    // scheduler defects, coarsening) in its `from_env` constructors and in
    // a few process-wide switches. The benchmark builds every config
    // explicitly and also clears them here, before any runtime call, so the
    // environment cannot change the measured program.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CL_") {
            std::env::remove_var(&key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} pool_workers={}",
        args.workload, args.seed, args.seconds, args.trace as u8, host.nproc, host.workers
    );
    println!(
        "config: context={:?} queue={:?}{}",
        ocl_rt::ContextConfig {
            race_recording: false
        },
        common::queue_config(false, args.workload == "fig9-chain"),
        if args.trace {
            " (the traced phase sets tracing: true)"
        } else {
            ""
        },
    );
    if args.workload == "serve-mix" {
        println!("config: serve={:?}", serve::serve_config());
    }
    let result = match args.workload.as_str() {
        "launch-storm" => storm::run(&args, &host),
        "table2-sweep" => sweep::run(&args, &host),
        "serve-mix" => serve::run(&args, &host),
        "fig9-chain" => chain::run(&args, &host),
        _ => unreachable!("workload validated by parse_args"),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(e) = &outcome.first_error {
        println!("first failure: {e}");
    }
    println!(
        "ops: attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    print!("{}", outcome.table(args.trace));
    println!("{}", outcome.json(args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve-mix --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-mix");
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve-mix --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload serve-mix --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }
}
