//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fit-isolet|serve-f32|serve-int8> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the environment, one `metric` line per metric, and as its last
//! line a JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones.  Exits non-zero if any correctness check fails.  See `README.md`.

mod cpu;
mod env;
mod replay;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;
mod workloads;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{Clock, Tracer};
use workloads::{Run, Workload};

const USAGE: &str =
    "usage: perfbench --workload <fit-isolet|serve-f32|serve-int8> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = Some(false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("--seconds must be 1..=600, got {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    env::print(run.workload.name(), run.seed, run.seconds, run.trace);
    let started = std::time::Instant::now();
    let ticks_before = env::cpu_ticks();
    let mut report = Report::default();
    let mut fit_trace = Tracer::new(Clock::ThreadCpu);
    let mut serve_trace = Tracer::new(Clock::Wall);
    if let Err(e) = workloads::execute(run, &mut report, &mut fit_trace, &mut serve_trace) {
        eprintln!("run aborted: {e}");
        return ExitCode::FAILURE;
    }
    println!("env wall_s = {:.3}", started.elapsed().as_secs_f64());
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, env::cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("env steal_share = {share:.4} (CPU time the host took from this machine during the run)");
    }
    if run.trace {
        for (part, tracer) in [("fit", &fit_trace), ("serve", &serve_trace)] {
            let path = PathBuf::from(".perfbench_trace").join(format!(
                "{}-seed{}-{part}.jsonl",
                run.workload.name(),
                run.seed
            ));
            match tracer.write_jsonl(&path) {
                Ok(()) => println!(
                    "trace: {} spans written to {}",
                    tracer.spans().len(),
                    path.display()
                ),
                Err(e) => eprintln!("trace not written: {e}"),
            }
        }
    }
    let expected: &[&str] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let correct = report.correct(expected);
    println!("{}", report.json(correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let run = parse(&args(
            "--workload serve-int8 --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(run.workload, Workload::ServeInt8);
        assert_eq!((run.seed, run.seconds, run.trace), (42, 10, true));
        assert!(parse(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse(&args("--workload fit-isolet --seed 1 --seconds 0")).is_err());
        assert!(parse(&args("--workload fit-isolet --seconds 5")).is_err());
    }
}
