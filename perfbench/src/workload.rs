//! The benchmark's workloads and one guarded, verified application run.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use hyperion::{
    myrinet_200, HyperionConfig, ProtocolKind, RunReport, TransportBackend, TransportConfig,
};
use hyperion_apps::asp::{self, AspParams, AspResult};
use hyperion_apps::kvstore::{self, KvStoreParams, KvStoreResult};

use crate::stats::{peak_rss_mb, reset_peak_rss};

/// Nodes of the KV clusters and of the probe runtime, one application
/// thread each.
pub const NODES: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf KV store under `java_pf` on the cost-model transport.
    KvZipf,
    /// The same stream over per-node Unix-domain-socket servers.
    KvZipfUnix,
    /// Floyd–Warshall ASP under `java_ic` on one node.
    AspIc,
}

/// Input size: `Full` is what the benchmark measures, `Tiny` is for the
/// self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Clone, Copy, Debug)]
pub enum Input {
    Kv(KvStoreParams),
    Asp(AspParams),
}

/// An application's checked answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Kv(KvStoreResult),
    Asp(AspResult),
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::KvZipf, Workload::KvZipfUnix, Workload::AspIc];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvZipf => "kv-zipf",
            Workload::KvZipfUnix => "kv-zipf-unix",
            Workload::AspIc => "asp-ic",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_kv(self) -> bool {
        matches!(self, Workload::KvZipf | Workload::KvZipfUnix)
    }

    pub fn config(self) -> HyperionConfig {
        let (protocol, backend) = match self {
            Workload::KvZipf => (ProtocolKind::JavaPf, TransportBackend::Sim),
            Workload::KvZipfUnix => (ProtocolKind::JavaPf, TransportBackend::UnixSocket),
            Workload::AspIc => (ProtocolKind::JavaIc, TransportBackend::Sim),
        };
        // ASP runs on one node: four compute-bound threads on a two-core host
        // made its host time swing by a third between runs of the benchmark,
        // while one thread tracks the host's own speed.
        let nodes = if self.is_kv() { NODES } else { 1 };
        HyperionConfig::new(myrinet_200(), nodes, protocol).with_transport(TransportConfig {
            backend,
            ..TransportConfig::default()
        })
    }

    /// The workload's input, a pure function of `seed`.
    pub fn input(self, scale: Scale, seed: u64) -> Input {
        if self.is_kv() {
            let base = match scale {
                Scale::Full => KvStoreParams::paper(),
                Scale::Tiny => KvStoreParams::quick(),
            };
            Input::Kv(KvStoreParams { seed, ..base })
        } else {
            // The harness graph (192 vertices): a run takes about a second
            // of host time, so a run of the benchmark gets tens of samples.
            let base = match scale {
                Scale::Full => AspParams::harness(),
                Scale::Tiny => AspParams::quick(),
            };
            Input::Asp(AspParams { seed, ..base })
        }
    }
}

impl Input {
    /// The single-threaded reference answer.
    pub fn reference(&self) -> Answer {
        match self {
            Input::Kv(p) => Answer::Kv(kvstore::sequential(p, NODES)),
            Input::Asp(p) => Answer::Asp(asp::sequential(p)),
        }
    }

    /// Useful operations of one run: KV requests, or ASP relaxations (n³).
    pub fn ops(&self) -> f64 {
        match self {
            Input::Kv(p) => (p.ops_per_thread * NODES) as f64,
            Input::Asp(p) => (p.vertices as f64).powi(3),
        }
    }

    fn run(self, config: HyperionConfig) -> (Answer, RunReport) {
        match self {
            Input::Kv(p) => {
                let out = kvstore::run(config, &p);
                (Answer::Kv(out.result), out.report)
            }
            Input::Asp(p) => {
                let out = asp::run(config, &p);
                (Answer::Asp(out.result), out.report)
            }
        }
    }
}

/// A run: host wall seconds of the `run()` call, the process's peak
/// resident MiB during it, and its report.
pub struct Sample {
    pub host_s: f64,
    pub peak_rss_mb: f64,
    pub report: RunReport,
}

/// Why a run failed.
#[derive(Debug)]
pub enum Failure {
    Mismatch { got: Answer, want: Answer },
    Panic(String),
    Timeout(Duration),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Mismatch { got, want } => {
                write!(f, "digest mismatch: got {got:?}, want {want:?}")
            }
            Failure::Panic(msg) => write!(f, "panic: {msg}"),
            Failure::Timeout(cap) => write!(f, "no result within the {cap:?} wall-clock cap"),
        }
    }
}

/// Run the application once on its own thread, with a wall-clock cap.
///
/// On a timeout the run's threads are left behind (they cannot be
/// cancelled); the caller must stop and exit the process.
pub fn run_guarded(
    config: &HyperionConfig,
    input: Input,
    cap: Duration,
) -> Result<(Answer, Sample), Failure> {
    let (tx, rx) = mpsc::channel();
    let config = config.clone();
    reset_peak_rss();
    let worker = std::thread::Builder::new()
        .name("perfbench-run".into())
        .spawn(move || {
            let start = Instant::now();
            let out = std::panic::catch_unwind(move || input.run(config));
            let _ = tx.send((start.elapsed(), out));
        })
        .expect("spawn the run thread");
    let (elapsed, out) = rx.recv_timeout(cap).map_err(|_| Failure::Timeout(cap))?;
    worker
        .join()
        .expect("the run thread catches its own panics");
    let (answer, report) = out.map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Failure::Panic(msg)
    })?;
    let sample = Sample {
        host_s: elapsed.as_secs_f64(),
        peak_rss_mb: peak_rss_mb().expect("/proc/self/status has VmHWM"),
        report,
    };
    Ok((answer, sample))
}
