//! Benchmark of the kkt-spanning replay stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of one workload; `--trace 1`
//! drives the same inputs through the library's public calls with a span
//! around each layer and reports per-layer metrics. Either way the last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; everything else goes to standard
//! error. The exit code is 0 only when every simulated total matched.
//!
//! `--pin` prints the exact simulated totals of the workload at the seed as a
//! `pins.json` entry instead of measuring.

// Reading the host clock is this package's purpose. The workspace's clock rule
// (kkt-lint R2) guards the deterministic stack, and nothing simulated here
// depends on what the clock reads.
#![allow(clippy::disallowed_methods)]

mod fleet;
mod host;
mod measure;
mod pins;
mod spec;
mod stats;
mod traced;

use std::process::ExitCode;

use spec::WorkloadKind;

/// Parsed command line.
struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut pin = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        pin,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>] [--pin]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.pin {
        return match traced::pin_totals(args.workload, args.seed) {
            Ok(totals) => {
                println!("{}", totals.to_json(args.workload, args.seed));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match (args.trace, args.workload.replay_spec()) {
        (false, Some(spec)) => measure::run(args.workload, spec, args.seed, args.seconds),
        (false, None) => fleet::run(args.seed, args.seconds),
        (true, _) => traced::run(args.workload, args.seed, args.seconds),
    };
    let correct = result.correct();
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
