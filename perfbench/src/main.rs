//! The qnlg benchmark: four workloads over the three hot paths of the
//! system, end to end with tracing off and layer by layer with it on.
//!
//! ```text
//! perfbench --workload <serve-socket|serve-plane|serve-faulted|fig4>
//!           --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a human summary goes
//! to standard error. `perfbench/run.py` builds this binary, runs it under
//! a wall-clock watchdog, and checks the metric names against
//! `BENCHMARK.json`.

mod clock;
mod fig4;
mod host;
mod layers;
mod outcome;
mod served;
mod tracer;

use outcome::Outcome;
use std::process::ExitCode;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Out-of-process placement over the Unix-socket protocol.
    ServeSocket,
    /// In-process decisions, each paid for by a freshly drawn slot.
    ServePlane,
    /// `ServePlane` under a periodic both-link outage.
    ServeFaulted,
    /// The paper's Figure 4 sweep.
    Fig4,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "serve-socket" => Workload::ServeSocket,
            "serve-plane" => Workload::ServePlane,
            "serve-faulted" => Workload::ServeFaulted,
            "fig4" => Workload::Fig4,
            _ => return None,
        })
    }
}

/// Checked command-line arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window (split in half between the untraced
    /// and traced passes when `trace` is set).
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out: Outcome = match args.workload {
        Workload::ServeSocket => served::socket(&args),
        Workload::ServePlane | Workload::ServeFaulted => served::plane(&args),
        Workload::Fig4 => fig4::run(&args),
    };
    if args.trace {
        layers::fill_missing(&args, &mut out);
    }
    let correct = out.finish();
    println!("{}", out.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
