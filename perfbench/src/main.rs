//! Runs one workload of the repository benchmark.
//!
//! ```text
//! perfbench --workload <lookup-64k|kv-churn-6k|mixed-2d> --seed <n> \
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Lines before it repeat
//! every metric by name and unit for a reader.

use perfbench::{kv, lookup, mixed, Report, RunArgs};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <lookup-64k|kv-churn-6k|mixed-2d> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scratch: Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp"),
        },
    ))
}

fn run(workload: &str, args: &RunArgs) -> Result<Report, String> {
    match workload {
        "lookup-64k" => lookup::run(args),
        "kv-churn-6k" => kv::run(args),
        "mixed-2d" => mixed::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let (workload, args) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&workload, &args) {
        Ok(report) => {
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
