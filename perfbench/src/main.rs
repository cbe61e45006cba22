//! The repository benchmark: four workloads over the public APIs of
//! `monotone-store`, `monotone-engine` and `monotone-coord`.
//!
//! ```text
//! perfbench --workload <service|service_remote|join|live> --seed <n>
//!           --seconds <s> --trace <0|1> [--toy]
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics for
//! `--seconds` seconds; with `--trace 1` it runs a fixed op stream twice,
//! untraced and traced, and reports the per-layer metrics. Either way the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! non-zero when a correctness check failed. `--toy` shrinks every size
//! for the smoke test. `perfbench/run.py` builds this binary and the
//! `shard_worker` it spawns, then runs it; see `perfbench/WORKLOADS.md`.

mod join;
mod layers;
mod live;
mod report;
mod service;
mod shadow;
mod trace;
mod traced;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use monotone_core::{Error, Result};
use monotone_store::remote::WORKER_ENV;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
}

const USAGE: &str = "usage: perfbench --workload <service|service_remote|join|live> \
                     --seed <n> --seconds <s> --trace <0|1> [--toy]";

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut toy = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--toy" => toy = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        toy,
    })
}

/// The `shard_worker` executable the remote workload spawns. The
/// benchmark never searches for one: the path must be given through
/// `MONOTONE_SHARD_WORKER`, so a stale binary cannot be timed by accident.
pub fn worker_binary() -> Result<PathBuf> {
    let path = std::env::var_os(WORKER_ENV)
        .map(PathBuf::from)
        .ok_or_else(|| Error::ShardUnavailable {
            shard: 0,
            reason: format!("{WORKER_ENV} is not set; run the benchmark through perfbench/run.py"),
        })?;
    if !path.is_file() {
        return Err(Error::ShardUnavailable {
            shard: 0,
            reason: format!("{WORKER_ENV}={} is not a file", path.display()),
        });
    }
    Ok(path)
}

/// Writes the traced run's spans to `$PERFBENCH_OUT/spans-<workload>.tsv`
/// (nothing when the variable is unset).
pub fn write_spans(tr: &trace::Tracer, workload: &str) -> Result<()> {
    let Some(dir) = std::env::var_os("PERFBENCH_OUT") else {
        return Ok(());
    };
    let io = |e: std::io::Error| Error::Encoding(format!("writing spans: {e}"));
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir).map_err(io)?;
    let file = std::fs::File::create(dir.join(format!("spans-{workload}.tsv"))).map_err(io)?;
    let mut out = std::io::BufWriter::new(file);
    tr.write_spans(&mut out).map_err(io)?;
    out.flush().map_err(io)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "service" => service::run(&args, false),
        "service_remote" => service::run(&args, true),
        "join" => join::run(&args),
        "live" => live::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
