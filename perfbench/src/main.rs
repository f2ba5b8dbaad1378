//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the input sizes and every metric with its unit, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 1` it also writes the traced phase's spans to
//! `perfbench/out/spans-<workload>.jsonl`.

use std::process::ExitCode;

use perfbench::{result_json, run_named, trace, Size, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut tr) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                tr = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: tr.unwrap_or(false) })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run_named(&args.workload, args.seed, args.seconds, args.trace, Size::Full)
        .expect("workload name was validated");
    for n in &report.notes {
        println!("{n}");
    }
    for (k, (v, unit)) in &report.metrics {
        println!("{k:<28} {v:>16.6} {unit}");
    }
    if args.trace {
        // One file per workload: each traced run replaces the last one's.
        let path = std::path::PathBuf::from(format!("perfbench/out/spans-{}.jsonl", args.workload));
        if let Err(e) = trace::write_jsonl(&path, &report.spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans: {} ({} spans)", path.display(), report.spans.len());
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
