//! Protocol, adaptive-parameter and transport configuration types.
//!
//! These are plain data.  [`ProtocolKind`] is the paper's vocabulary for
//! the detection choice; a [`crate::policy::PolicySpec`] (built from one
//! with [`crate::policy::PolicySpec::for_protocol`]) selects every policy
//! of a run, and [`TransportConfig`] describes only the carrier under it.

use hyperion_model::VTime;
use hyperion_pm2::{FaultSpec, NodeId, RetryPolicy, TransportBackend};

use crate::policy::{
    DetectionSpec, FlushSpec, MigrationSpec, PolicySpec, PredictorSpec, ReplicationSpec,
    TopologySpec,
};

/// Which access-detection technique a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Explicit in-line locality checks on every access (§3.2).
    JavaIc,
    /// Page-fault-based detection with page protection (§3.3).
    JavaPf,
    /// Adaptive per-page selection between the two techniques, with batched
    /// page fetches (extension beyond the paper).
    JavaAd,
}

impl ProtocolKind {
    /// The name used in the paper's figures (and `java_ad` for the adaptive
    /// extension).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::JavaIc => "java_ic",
            ProtocolKind::JavaPf => "java_pf",
            ProtocolKind::JavaAd => "java_ad",
        }
    }

    /// The paper's two protocols, in the order the paper lists them.
    pub fn all() -> [ProtocolKind; 2] {
        [ProtocolKind::JavaIc, ProtocolKind::JavaPf]
    }

    /// The paper's two protocols plus the adaptive extension.
    pub fn all_extended() -> [ProtocolKind; 3] {
        [
            ProtocolKind::JavaIc,
            ProtocolKind::JavaPf,
            ProtocolKind::JavaAd,
        ]
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunable policy knobs of the adaptive protocol (`java_ad`).
///
/// The switching thresholds are expressed as multiples of the machine
/// model's break-even access count `n*` so one parameterisation is
/// meaningful on both modelled clusters; the ablation benchmarks sweep
/// `hi_multiple` to show the policy is robust around 1.0.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveParams {
    /// A check-mode page switches to protection when its *smoothed*
    /// accesses-per-epoch (EWMA over invalidation epochs) reach
    /// `hi_multiple · n*`.
    pub hi_multiple: f64,
    /// A protect-mode page falls back to checks when its smoothed
    /// accesses-per-epoch drop to `lo_multiple · n*` or below.  Kept
    /// strictly below `hi_multiple` (hysteresis) so borderline pages do not
    /// flap.
    pub lo_multiple: f64,
    /// Largest number of pages one fetch RPC may carry; 1 disables batching.
    pub max_batch_pages: usize,
    /// Consecutive re-accessed epochs a page needs before history-driven
    /// prefetching may pull it into a neighbour's batch.
    pub min_prefetch_streak: u64,
    /// Adapt the `hi`/`lo` thresholds online, per node, from the measured
    /// switch and waste counters: a node whose pages flap between the two
    /// techniques widens its own hysteresis band (up to 8× the configured
    /// multiples), and a node that has stopped mispredicting relaxes back
    /// towards them.  Off by default — the static thresholds are what the
    /// ablation benchmarks sweep.
    pub online_thresholds: bool,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            hi_multiple: 1.0,
            lo_multiple: 0.5,
            max_batch_pages: 8,
            min_prefetch_streak: 3,
            online_thresholds: false,
        }
    }
}

/// The named policy mixes the figures compare.
impl PolicySpec {
    /// The default selection for `kind`: its detection policy, synchronous
    /// flushing batched up to 8 pages, and every other mechanism off.
    pub fn for_protocol(kind: ProtocolKind) -> PolicySpec {
        PolicySpec {
            detection: DetectionSpec::for_protocol(kind),
            predictor: PredictorSpec::Noop,
            migration: MigrationSpec::Noop,
            flush: FlushSpec::Batched { max_pages: 8 },
            replication: ReplicationSpec::Noop,
            topology: TopologySpec::Flat,
            overlapped_fetches: false,
        }
    }

    /// The paper's blocking transport: no overlap, no flush batching, no
    /// home migration, no prefetch directory, no deferred flushing.
    pub fn blocking(kind: ProtocolKind) -> PolicySpec {
        PolicySpec {
            flush: FlushSpec::Batched { max_pages: 1 },
            ..PolicySpec::for_protocol(kind)
        }
    }

    /// The latency-hiding mix: overlapped fetches, batched flushing and
    /// majority-vote home migration (the prefetch directory and deferred
    /// flushing stay off — see [`PolicySpec::directory`]).
    pub fn latency_hiding(kind: ProtocolKind) -> PolicySpec {
        PolicySpec {
            overlapped_fetches: true,
            migration: MigrationSpec::MajorityVote { streak: 3 },
            ..PolicySpec::for_protocol(kind)
        }
    }

    /// The prefetch-directory mix: overlapped fetches plus cluster-wide
    /// hints and deferred release flushing (home migration is left off so
    /// directory effects are measured in isolation).
    pub fn directory(kind: ProtocolKind) -> PolicySpec {
        PolicySpec {
            overlapped_fetches: true,
            predictor: PredictorSpec::Directory { hint_window: 4 },
            flush: FlushSpec::Deferred { max_pages: 8 },
            ..PolicySpec::for_protocol(kind)
        }
    }

    /// The short label of the fetch-overlap mode (`"ov"` / `"block"`).
    ///
    /// Overlap is an engine mechanism, not a policy object, so its label
    /// lives here rather than on a policy `name()`.
    pub fn overlap_name(&self) -> &'static str {
        if self.overlapped_fetches {
            "ov"
        } else {
            "block"
        }
    }
}

/// Configuration of the carrier under the DSM: which transport moves the
/// RPCs, how failed RPCs are retried and which faults are injected.
///
/// Every *policy* choice — fetch overlap, flush batching, home migration,
/// the prefetch directory, replication and the node-group topology — lives
/// in [`crate::policy::PolicySpec`]; this struct only describes the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportConfig {
    /// Which [`hyperion_pm2::Transport`] implementation carries the RPCs:
    /// the in-process cost model (default) or a real Unix-domain/TCP
    /// socket per node.  Semantics-preserving by construction — the wire
    /// payloads and the virtual-time charging are identical across
    /// backends, only the physical carrier differs.
    pub backend: TransportBackend,
    /// Retry schedule of the DSM's RPC path: bounded attempts with
    /// exponential backoff under a deadline, every retry charged to the
    /// calling thread's virtual clock (and counted in `rpc_retries` /
    /// `rpc_timeouts`).  On a fault-free run the first attempt always
    /// succeeds and the schedule charges nothing.
    pub retry: RetryPolicy,
    /// Deterministic fault schedule replayed by a
    /// [`hyperion_pm2::FaultyTransport`] wrapped around the chosen backend;
    /// `None` (default) leaves the transport untouched.
    pub fault: Option<FaultSpec>,
}

/// One home's contribution to a deferred release flush: when its flush RPC
/// was issued and when it completes.  Keeping the record *per home* is what
/// lets the monitor layer account hidden overlap per home instead of
/// parking every flush behind the single slowest completion (the per-home
/// watermark follow-on of the deferred-flush PR).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HomeFlushMark {
    /// The home node the diff batch was flushed to.
    pub home: NodeId,
    /// Virtual time at which this home's flush RPC left the releaser.
    pub issue: VTime,
    /// Virtual time at which this home's flush RPC completes.
    pub completion: VTime,
}

/// The record a deferred release flush leaves behind: the virtual instant
/// the flush RPCs were issued and the instant the last of them completes,
/// plus one [`HomeFlushMark`] per home flushed.  The monitor that performed
/// the release stores it and merges every home's `completion` into the next
/// acquirer's clock (see [`crate::policy::FlushSpec::Deferred`]) — merging all
/// homes equals merging the max, so the JMM edge is unchanged, but the
/// per-home issue stamps let hidden-overlap accounting credit each home's
/// flush window individually.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeferredFlush {
    /// Virtual time at which the releasing thread finished issuing the
    /// flush RPCs (everything before this was charged at the release).
    pub issue: VTime,
    /// Virtual time at which the last flush RPC completes; the next acquire
    /// of the same monitor can not happen before this.
    pub completion: VTime,
    /// Per-home issue/completion watermarks, one per home flushed.
    pub homes: Vec<HomeFlushMark>,
}

/// Where the page behind an address currently lives, relative to an
/// observing node.
///
/// This is the distinction the paper's two protocols *detect* on every
/// access; promoting it into the API lets programs ask once and then take a
/// fast path (bulk transfers, pinned views) that elides the per-access
/// detection entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Locality {
    /// The observing node is the page's home: every access is local.
    Local,
    /// A remote page with a valid, unprotected cached copy on the node:
    /// accesses are served locally until the next cache invalidation.
    CachedRemote,
    /// A remote page with no usable local copy: the next access pays the
    /// full detection-plus-fetch path.
    Remote,
}

impl Locality {
    /// True if an access right now would be served without DSM traffic
    /// (home page or valid cached copy).
    pub fn is_resident(self) -> bool {
        !matches!(self, Locality::Remote)
    }

    /// Short lower-case name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Locality::Local => "local",
            Locality::CachedRemote => "cached-remote",
            Locality::Remote => "remote",
        }
    }
}

impl std::fmt::Display for Locality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
