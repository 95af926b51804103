//! perfbench: the end-to-end and per-layer benchmark of Hyperion-RS.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-zipf --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process runs one workload through the application's public `run()`
//! and checks every answer against the application's `sequential()`
//! reference.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! the workload with spans around its calls into the runtime, then the
//! per-primitive probes, and prints the per-layer metrics.  A table for
//! people comes first; the last line of standard output is one JSON object.
//! The process exits with 1 if any run failed and with 2 on bad arguments.
//! See `perfbench/README.md` for the workloads and what each metric should
//! move.

mod probes;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use hyperion::HyperionRuntime;

use crate::report::Metric;
use crate::trace::Tracer;
use crate::workload::{run_guarded, Answer, Failure, Sample, Scale, Workload};

/// Set-ups per process, at least; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of `--seconds` spent on further set-ups, so that cheap set-ups
/// are repeated until their median is steady.
const SETUP_SHARE: f64 = 0.15;
/// Timed runs made even when `--seconds` has already passed.
const MIN_SAMPLES: usize = 4;
/// Wall-clock cap on one `run()` call (a healthy one takes under 2 s).
const RUN_CAP: Duration = Duration::from_secs(45);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or_else(bad)?,
                )
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
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything one benchmark process measured.
pub struct Outcome {
    pub attempted: usize,
    pub failures: Vec<Failure>,
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
}

/// Run `workload` for about `seconds` of timed runs and collect its metrics.
pub fn bench(workload: Workload, scale: Scale, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let config = workload.config();
    let input = workload.input(scale, seed);
    let mut tracer = Tracer::new(trace);
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut setups = Vec::new();
    let mut sequential_s = 0.0;
    let mut samples = Vec::new();
    // Driving-thread wall seconds of the traced and untraced iterations (trace
    // mode alternates them).
    let (mut wall_traced, mut wall_untraced) = (Vec::new(), Vec::new());
    let mut probes = Vec::new();

    tracer.span("workload", |tr| {
        let start = Instant::now();
        let want = tr.span("apps.sequential", |_| input.reference());
        sequential_s = start.elapsed().as_secs_f64();

        // Set-up: build a runtime (socket servers start here on the Unix
        // backend), then make the untimed first run, which is an outlier.
        let setup_until = Instant::now() + Duration::from_secs_f64(seconds * SETUP_SHARE);
        while setups.len() < SETUPS || Instant::now() < setup_until {
            tr.next_run();
            let start = Instant::now();
            let runtime = tr.span("hyperion.runtime_new", |_| {
                HyperionRuntime::new(config.clone()).expect("valid workload configuration")
            });
            drop(runtime);
            attempted += 1;
            if let Err(f) = run_and_verify(tr, true, &config, input, &want) {
                failures.push(f);
                return;
            }
            setups.push(start.elapsed().as_secs_f64());
        }

        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while samples.len() < MIN_SAMPLES || Instant::now() < deadline {
            tr.next_run();
            attempted += 1;
            // Trace mode alternates traced and untraced runs so that the
            // tracing overhead is measured in one process.
            let spans = trace && samples.len().is_multiple_of(2);
            let start = Instant::now();
            match run_and_verify(tr, spans, &config, input, &want) {
                Ok(sample) => samples.push(sample),
                Err(f) => {
                    failures.push(f);
                    return;
                }
            }
            let wall = start.elapsed().as_secs_f64();
            if spans {
                wall_traced.push(wall);
            } else {
                wall_untraced.push(wall);
            }
        }

        if trace {
            tr.next_run();
            probes = tr.span("probes", |tr| probes::run_probes(&config, scale, tr));
        }
    });

    let metrics = if !failures.is_empty() {
        Vec::new()
    } else if trace {
        report::per_layer(
            workload,
            input.ops(),
            sequential_s,
            &samples,
            &probes,
            &tracer,
            (&wall_traced, &wall_untraced),
        )
    } else {
        report::end_to_end(workload, input.ops(), &setups, &samples)
    };
    Outcome {
        attempted,
        failures,
        metrics,
        tracer,
    }
}

/// One guarded `run()` plus its output check, inside `apps.run` and
/// `apps.verify` spans when `spans` is set.
fn run_and_verify(
    tr: &mut Tracer,
    spans: bool,
    config: &hyperion::HyperionConfig,
    input: workload::Input,
    want: &Answer,
) -> Result<Sample, Failure> {
    let mut off = Tracer::new(false);
    let tr = if spans { tr } else { &mut off };
    let (got, sample) = tr.span("apps.run", |_| run_guarded(config, input, RUN_CAP))?;
    tr.span("apps.verify", |_| {
        if &got == want {
            Ok(sample)
        } else {
            Err(Failure::Mismatch {
                got,
                want: want.clone(),
            })
        }
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <kv-zipf|kv-zipf-unix|asp-ic> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Unix-domain sockets go under the working directory, named relative to
    // it so the path stays short.
    let out_dir = std::path::Path::new(".bench_out");
    let sock_dir = out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&sock_dir) {
        eprintln!("perfbench: cannot create {}: {e}", sock_dir.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &sock_dir);

    let outcome = bench(
        args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
    );
    if args.trace {
        let path = out_dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match std::fs::write(&path, outcome.tracer.to_json()) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                outcome.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for f in &outcome.failures {
        eprintln!("perfbench: {} run failed: {f}", args.workload.name());
    }
    print!("{}", report::table(args.workload, &outcome));
    println!("{}", report::json_line(&outcome));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
