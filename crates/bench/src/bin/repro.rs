//! `repro` — regenerate every figure and quantitative claim of the paper.
//!
//! ```text
//! repro <experiment> [--quick] [--json] [--out <dir>] [--trace]
//! repro serve --soak [--socket <path>] [--json] [--out <dir>] [--trace]
//! repro all [--quick] [--json] [--out <dir>] [--trace]
//! repro check-artifacts <dir>
//! repro perf-diff <old-dir> <new-dir> [--tolerance <ratio>]
//! repro list
//! ```
//!
//! `--json` prints each experiment as one `qnlg.bench.v1` JSON line on
//! stdout instead of the text tables; `--out <dir>` additionally writes
//! one `BENCH_<experiment>.json` artifact per experiment (text output
//! stays on stdout unless `--json` is also given). `check-artifacts`
//! re-validates previously written artifacts (`report::check_repro_artifact`).
//!
//! `--soak` (serve only) replaces the serve experiment's bounded
//! wall-clock arms with an open-ended soak that runs until SIGINT; the
//! handler just sets a flag, the measurement loop drains gracefully, and
//! the full artifact — deterministic checks plus whatever wall-clock
//! windows completed — is still emitted. `--socket <path>` additionally
//! binds a Unix socket serving the length-prefixed decision protocol
//! (`serve::socket`) from a threaded `Service` for the soak's lifetime,
//! so out-of-process callers can query placements while the soak runs;
//! SIGINT drains connections and shuts the service down gracefully.
//!
//! `--trace` (requires `--out`) additionally records the event timeline
//! and writes `TRACE_<experiment>.json` (Chrome `trace_event` format —
//! load in Perfetto or `chrome://tracing`) per experiment.
//!
//! Each artifact's `perf` section is the run's `elapsed_ns` plus a list
//! of per-unit-of-work metrics in `BENCHMARK.json`'s shape (`name`,
//! `unit`, `better`, `value`; see `report::PerfStats`); stderr's `perf:`
//! line and the `repro all` summary print every metric with its unit.
//! `perf-diff` compares the `perf` sections of two artifact directories
//! metric by metric and exits non-zero when any regressed beyond the
//! tolerance (default 1.5×), so CI can gate on it.
//!
//! The process exits non-zero when any experiment's acceptance checks
//! fail, so CI can gate on `repro all --quick`.
//!
//! Experiments (see DESIGN.md §4 for the full index):
//!
//! | name             | paper exhibit                                   |
//! |------------------|--------------------------------------------------|
//! | chsh             | §2 CHSH/GHZ values (E3)                          |
//! | fig3             | Figure 3: XOR-game advantage probability (E1)    |
//! | fig3-vertices    | Figure 3 caption: scaling with vertices (E1b)    |
//! | fig4             | Figure 4: queue length vs load (E2)              |
//! | fig4-scaling     | E2b: N-independence at fixed N/M                 |
//! | fig4-disciplines | E2c: footnote-2 robustness                       |
//! | fig4-faults      | E-faults: fault injection + graceful degradation |
//! | fig4-scale       | E2d: Figure 4 at production scale (10⁶ servers)  |
//! | ecmp             | §4.2 reduction + conjecture search (E4)          |
//! | timing           | Figure 2: decision latency (E5)                  |
//! | noise            | §3 error margins: visibility/storage (E6)        |
//! | hybrid           | §4.1 caveat: dedicated-server baseline (E7)      |
//! | pipeline         | E8: hardware-in-the-loop Figure 4                |
//! | ghz              | E9: multiparty Mermin/Magic-Square crossover     |
//! | topology         | E10: metro repeater chains + contention routing  |
//! | serve            | E11: qnlg-serve sub-µs decision service          |

use qnlg_bench::report::{check_repro_artifact, write_artifact, PerfStats, RunContext};
use qnlg_bench::{experiments, perfdiff, Report, Table};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Set by the SIGINT handler under `--soak`; the serve soak loop drains
/// gracefully when it flips.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

// `signal(2)` straight from libc (already linked by std): installing a
// flag-only handler needs none of the sigaction machinery.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// POSIX SIGINT.
const SIGINT: i32 = 2;

struct Options {
    quick: bool,
    json: bool,
    out: Option<PathBuf>,
    trace: bool,
    soak: bool,
    socket: Option<PathBuf>,
}

/// Everything one instrumented experiment run produces.
struct RunOutput {
    report: Report,
    snap: obs::Snapshot,
    perf: PerfStats,
    trace_log: Option<trace::TraceLog>,
}

/// Runs one experiment with the metrics registry scoped to it, so the
/// artifact's `obs` section covers exactly this run; times the run for
/// the artifact's `perf` section and, under `--trace`, captures the
/// event timeline.
fn run_instrumented(
    name: &str,
    quick: bool,
    tracing: bool,
    soak: bool,
    socket: Option<&Path>,
) -> Option<RunOutput> {
    obs::reset();
    obs::set_enabled(true);
    if tracing {
        trace::reset();
        trace::set_enabled(true);
    }
    let started = Instant::now();
    let report = if soak {
        // Only serve has an open-ended soak mode; `main` rejects --soak
        // for anything else. Under --socket, a threaded Service answers
        // the wire protocol for the soak's lifetime; its counters land
        // in the artifact's obs section alongside the soak's own.
        let served = socket.map(|path| {
            let config = serve::ServeConfig::typical(qnlg_bench::point_seed(46, 4, 0));
            let service = std::sync::Arc::new(serve::Service::start(&config));
            let server = serve::socket::SocketServer::start(path, std::sync::Arc::clone(&service))
                .unwrap_or_else(|e| {
                    eprintln!("error: cannot bind {}: {e}", path.display());
                    std::process::exit(2);
                });
            eprintln!("serving decisions on {}", path.display());
            (server, service)
        });
        let report = experiments::serve_exp::run_soak(&INTERRUPTED);
        if let Some((mut server, service)) = served {
            // Drain connections first, then drop the last Service ref so
            // its graceful shutdown flushes counters into this snapshot.
            server.stop();
            drop(service);
        }
        Some(report)
    } else {
        experiments::run(name, quick)
    };
    let elapsed = started.elapsed();
    let trace_log = tracing.then(|| {
        trace::set_enabled(false);
        trace::drain()
    });
    let snap = obs::snapshot();
    obs::set_enabled(false);
    let perf = PerfStats::from_elapsed(elapsed, Some(&snap));
    report.map(|report| RunOutput {
        report,
        snap,
        perf,
        trace_log,
    })
}

/// Emits one finished report: text and/or JSON to stdout, plus the
/// `BENCH_<name>.json` (and under `--trace` the `TRACE_<name>.json`)
/// artifacts when `--out` is set. Returns false on an artifact I/O
/// failure.
fn emit(out: &RunOutput, opts: &Options) -> bool {
    let mut ctx = RunContext::current(opts.quick, Some(out.snap.clone()));
    ctx.perf = Some(out.perf.clone());
    let line = out.report.to_json(&ctx).render();
    if opts.json {
        println!("{line}");
    } else {
        println!("{}", out.report);
        // Timing is machine-dependent, so it goes to stderr: stdout
        // stays byte-identical across runs and thread counts.
        let perf = &out.perf;
        let metrics: Vec<String> = perf
            .metrics
            .iter()
            .map(|m| format!("{} {:.2e} {}", m.name, m.value, m.unit))
            .collect();
        eprintln!(
            "perf: {:.1} ms [{}]",
            perf.elapsed_ns as f64 / 1e6,
            metrics.join(", ")
        );
    }
    let Some(dir) = &opts.out else {
        return true;
    };
    let mut files = vec![(
        format!("BENCH_{}.json", out.report.name),
        format!("{line}\n"),
    )];
    if let Some(log) = &out.trace_log {
        let name = format!("TRACE_{}.json", out.report.name);
        eprintln!(
            "trace: {} events ({} dropped) -> {}",
            log.events.len(),
            log.dropped,
            dir.join(&name).display()
        );
        files.push((
            name,
            format!("{}\n", trace::export::chrome_trace(log).render()),
        ));
    }
    for (name, contents) in &files {
        if let Err(e) = write_artifact(dir, name, contents) {
            eprintln!("error: {e}");
            return false;
        }
    }
    true
}

/// Renders the `repro all` per-experiment summary, one row per metric
/// (stderr: the timing columns are machine-dependent).
fn summary_table(rows: &[(&'static str, PerfStats, bool)]) -> String {
    let mut t = Table::new(vec![
        "experiment",
        "elapsed (ms)",
        "checks",
        "metric",
        "value",
        "unit",
    ]);
    for (name, perf, passed) in rows {
        let mut lead = vec![
            name.to_string(),
            format!("{:.1}", perf.elapsed_ns as f64 / 1e6),
            if *passed {
                "PASS".into()
            } else {
                "FAIL".into()
            },
        ];
        if perf.metrics.is_empty() {
            t.row(lead);
            continue;
        }
        for m in &perf.metrics {
            let mut row = std::mem::replace(&mut lead, vec![String::new(); 3]);
            row.extend([m.name.clone(), format!("{:.2e}", m.value), m.unit.clone()]);
            t.row(row);
        }
    }
    t.render()
}

/// `repro perf-diff <old> <new>`: compares the `perf` sections and gates
/// on the tolerance.
fn perf_diff(old_dir: &Path, new_dir: &Path, tolerance: f64) -> ExitCode {
    let load = |dir: &Path| match perfdiff::load_dir(dir) {
        Ok(entries) => Some(entries),
        Err(e) => {
            eprintln!("error: {e}");
            None
        }
    };
    let (Some(old), Some(new)) = (load(old_dir), load(new_dir)) else {
        return ExitCode::FAILURE;
    };
    let d = perfdiff::diff(&old, &new, tolerance);
    let mut t = Table::new(vec![
        "experiment",
        "metric",
        "old",
        "new",
        "ratio",
        "status",
    ]);
    for l in &d.lines {
        let fmt = |v: f64| {
            if l.metric == "elapsed_ns" {
                format!("{:.1}ms", v / 1e6)
            } else {
                format!("{v:.2e}")
            }
        };
        t.row(vec![
            l.experiment.clone(),
            l.metric.clone(),
            fmt(l.old),
            l.new.map_or_else(|| "missing".into(), fmt),
            format!("{:.2}x", l.slowdown),
            if l.regressed {
                "REGRESSED".into()
            } else {
                "ok".into()
            },
        ]);
    }
    println!("perf-diff (tolerance {tolerance:.2}x)");
    print!("{}", t.render());
    for s in &d.skipped {
        eprintln!("skipped: {s}");
    }
    if d.regressed() {
        eprintln!("FAIL: perf regression beyond {tolerance:.2}x tolerance");
        ExitCode::FAILURE
    } else {
        println!("no perf regressions beyond {tolerance:.2}x");
        ExitCode::SUCCESS
    }
}

fn check_artifacts(dir: &Path) -> ExitCode {
    let paths = match perfdiff::artifact_paths(dir) {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for path in &paths {
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("FAIL {}: {e}", path.display());
                ok = false;
                continue;
            }
        };
        for (i, line) in content.lines().filter(|l| !l.trim().is_empty()).enumerate() {
            match check_repro_artifact(line) {
                Ok(exp) => println!("OK   {} ({exp})", path.display()),
                Err(e) => {
                    eprintln!("FAIL {} line {}: {e}", path.display(), i + 1);
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        quick: false,
        json: false,
        out: None,
        trace: false,
        soak: false,
        socket: None,
    };
    let mut tolerance = perfdiff::DEFAULT_TOLERANCE;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--json" => opts.json = true,
            "--trace" => opts.trace = true,
            "--soak" => opts.soak = true,
            "--socket" => match it.next() {
                Some(path) => opts.socket = Some(PathBuf::from(path)),
                None => {
                    eprintln!("error: --socket requires a socket path argument");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(dir) => opts.out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --out requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r >= 1.0 => tolerance = r,
                _ => {
                    eprintln!("error: --tolerance requires a ratio >= 1.0");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag '{other}'");
                return ExitCode::FAILURE;
            }
            other => names.push(other.to_string()),
        }
    }

    let Some(first) = names.first().cloned() else {
        eprintln!(
            "usage: repro <experiment|all|list|check-artifacts|perf-diff> \
             [--quick] [--json] [--out <dir>] [--trace] [--soak] [--socket <path>] \
             [--tolerance <ratio>]"
        );
        eprintln!("experiments: {}", experiments::ALL.join(", "));
        return ExitCode::FAILURE;
    };

    if opts.trace && opts.out.is_none() {
        eprintln!("error: --trace requires --out <dir> (traces are written, not printed)");
        return ExitCode::FAILURE;
    }

    if opts.soak {
        if names != ["serve"] {
            eprintln!("error: --soak only applies to the serve experiment (repro serve --soak)");
            return ExitCode::FAILURE;
        }
        // SAFETY: installs a signal handler that only stores to an
        // AtomicBool, which is async-signal-safe.
        unsafe { signal(SIGINT, on_sigint) };
        eprintln!("soak: running until SIGINT (ctrl-c drains and emits the artifact)");
    }

    if opts.socket.is_some() && !opts.soak {
        eprintln!("error: --socket requires --soak (the socket serves for the soak's lifetime)");
        return ExitCode::FAILURE;
    }

    if let Some(dir) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    match first.as_str() {
        "list" => {
            for name in experiments::ALL {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        "check-artifacts" => {
            let Some(dir) = names.get(1) else {
                eprintln!("usage: repro check-artifacts <dir>");
                return ExitCode::FAILURE;
            };
            check_artifacts(Path::new(dir))
        }
        "perf-diff" => {
            let (Some(old_dir), Some(new_dir)) = (names.get(1), names.get(2)) else {
                eprintln!("usage: repro perf-diff <old-dir> <new-dir> [--tolerance <ratio>]");
                return ExitCode::FAILURE;
            };
            perf_diff(Path::new(old_dir), Path::new(new_dir), tolerance)
        }
        "all" => {
            let mut all_passed = true;
            let mut rows: Vec<(&'static str, PerfStats, bool)> = Vec::new();
            for name in experiments::ALL {
                if !opts.json {
                    println!("================================================================");
                }
                let out = run_instrumented(name, opts.quick, opts.trace, false, None)
                    .expect("ALL only lists known experiments");
                all_passed &= emit(&out, &opts);
                if !out.report.passed() {
                    eprintln!("FAIL: experiment '{name}' acceptance checks failed");
                    all_passed = false;
                }
                rows.push((*name, out.perf, out.report.passed()));
            }
            eprint!("{}", summary_table(&rows));
            if all_passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            let mut ok = true;
            for name in &names {
                match run_instrumented(
                    name,
                    opts.quick,
                    opts.trace,
                    opts.soak,
                    opts.socket.as_deref(),
                ) {
                    Some(out) => {
                        ok &= emit(&out, &opts);
                        if !out.report.passed() {
                            eprintln!("FAIL: experiment '{name}' acceptance checks failed");
                            ok = false;
                        }
                    }
                    None => {
                        eprintln!(
                            "unknown experiment '{name}'; valid: {}",
                            experiments::ALL.join(", ")
                        );
                        ok = false;
                    }
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
