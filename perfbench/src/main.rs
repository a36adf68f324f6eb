//! `perfbench --cli <maestro-cli> --work <dir> --workload <name>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line last. Exits
//! non-zero without a result line when the run cannot be carried out.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::workloads::{self, Ctx};

struct Args {
    cli: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut cli = None;
    let mut work = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--cli" => cli = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        cli: cli.ok_or("--cli is required")?,
        work: work.ok_or("--work is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args.work.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        cli: args.cli,
        work: run_dir.clone(),
        seed: args.seed,
        seconds: args.seconds,
        spans: args.work.join(format!("spans-{}.jsonl", args.workload)),
    };
    let mut report = Vec::new();
    let outcome = workloads::run(&ctx, &args.workload, args.trace, &mut report);
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok(result) => {
            let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
            println!(
                "perfbench {} seed {} ({} run, {} s, {cores} cores available)",
                args.workload,
                args.seed,
                if args.trace { "traced" } else { "untraced" },
                args.seconds
            );
            for line in &report {
                println!("  {line}");
            }
            let defs = if args.trace { PER_LAYER } else { END_TO_END };
            for (name, value) in &result.metrics {
                let def = defs.iter().find(|d| d.name == *name).expect("known metric");
                println!(
                    "  metric {name} = {value:.4} {} ({} is better)",
                    def.unit, def.better
                );
            }
            println!(
                "  operations: {} attempted, {} failed",
                result.tally.attempted, result.tally.failed
            );
            println!("{}", result.to_json_line(defs));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
