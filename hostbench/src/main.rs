//! `tls-hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A traced run also writes its spans as JSON lines to
//! `hostbench/spans/<workload>-<seed>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use tls_hostbench::{run, Config, Workload};

const USAGE: &str = "usage: tls-hostbench --workload <paper_ref|fuzz_diff|conform_traced> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Config::new(w, seed, seconds, trace))
        }
        _ => Err("--workload, --seed, --seconds and --trace are all required".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One worker thread: on a small shared host more threads widen the
    // run-to-run spread far more than they shorten a run.
    tls_experiments::par::set_jobs(1);
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::from(3);
        }
    };
    print!("{report}");
    if cfg.trace {
        let path = PathBuf::from("hostbench/spans").join(format!(
            "{}-{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        match tls_hostbench::spans::write_jsonl(&path, &report.spans) {
            Ok(()) => println!(
                "spans: {} written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
