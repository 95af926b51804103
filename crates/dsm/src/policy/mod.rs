//! Pluggable protocol policies: the decision points of the DSM protocol,
//! extracted behind traits so alternative strategies (Zipf-aware
//! predictors, quorum placement, hierarchical detection) can slot in
//! without touching the engine.
//!
//! The engine ([`crate::DsmSystem`]) owns every *mechanism* — page fetch
//! RPCs, diff application, in-flight tickets, invalidation, flush
//! coalescing — and consults one policy object per decision point:
//!
//! | Trait                 | Decision                                | Defaults                                        |
//! |-----------------------|-----------------------------------------|-------------------------------------------------|
//! | [`DetectionPolicy`]   | how a remote access is noticed          | `java_ic` / `java_pf` / [`AdaptiveDetection`]   |
//! | [`Predictor`]         | which hints a fetch reply carries       | [`NoopPredictor`] / [`DirectoryPredictor`]      |
//! | [`MigrationPolicy`]   | when a page's home moves to a writer    | [`NoopMigration`] / [`MajorityVoteMigration`]   |
//! | [`FlushPolicy`]       | how release diffs reach their homes     | [`BatchedFlush`] / [`DeferredFlush`]            |
//! | [`ReplicationPolicy`] | replicated read-homes and write quorums | [`NoopReplication`] / [`QuorumReplication`]     |
//!
//! [`PolicySpec`] is the data-level description (what configs and builders
//! carry); [`PolicySpec::build`] turns it into the [`PolicySet`] of live
//! policy objects the engine holds.  [`PolicySpec::validate`] rejects
//! illegal combinations with a typed [`PolicyError`] before any cluster
//! state exists.
//!
//! Alongside the five trait slots, [`PolicySpec`] carries a
//! [`TopologySpec`]: the node-group shape of the two-level home hierarchy.
//! It is not a trait — it builds a plain [`hyperion_pm2::Topology`] value
//! the page table and the `dsm::combine` relay layer consult — but it is
//! selected, validated and defaulted exactly like the policy slots
//! (flat = `Noop`-equivalent, byte-identical behaviour).

mod detection;
mod flush;
mod migration;
mod predictor;
mod replication;

use std::sync::Arc;

use hyperion_model::MachineModel;
use hyperion_pm2::{FaultSpec, Topology};

pub use detection::{
    AccessAction, AdaptiveDetection, DetectionPolicy, EpochOutcome, InlineCheckDetection,
    PageProtectDetection,
};
pub use flush::{BatchedFlush, DeferredFlush, FlushPolicy};
pub use migration::{MajorityVoteMigration, MigrationPolicy, NoopMigration};
pub use predictor::{DirectoryPredictor, FetchObservation, NoopPredictor, Predictor};
pub use replication::{NoopReplication, QuorumReplication, ReplicationPolicy};

use crate::config::{AdaptiveParams, ProtocolKind};

/// The five live policy objects one [`crate::DsmSystem`] consults.
#[derive(Clone)]
pub struct PolicySet {
    /// Access-detection state machine (the protocol proper).
    pub detection: Arc<dyn DetectionPolicy>,
    /// Home-side prefetch prediction.
    pub predictor: Arc<dyn Predictor>,
    /// Home-migration decision.
    pub migration: Arc<dyn MigrationPolicy>,
    /// Release-flush placement.
    pub flush: Arc<dyn FlushPolicy>,
    /// Replicated read-homes and write quorums.
    pub replication: Arc<dyn ReplicationPolicy>,
}

impl std::fmt::Debug for PolicySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicySet")
            .field("detection", &self.detection.name())
            .field("predictor", &self.predictor.name())
            .field("migration", &self.migration.name())
            .field("flush", &self.flush.name())
            .field("replication", &self.replication.name())
            .finish()
    }
}

/// Data-level choice of access-detection policy.
#[derive(Clone, Debug, PartialEq)]
pub enum DetectionSpec {
    /// `java_ic`: in-line locality checks.
    InlineCheck,
    /// `java_pf`: page-fault-based detection.
    PageProtect,
    /// `java_ad`: the adaptive per-page state machine, with its tunables.
    Adaptive(AdaptiveParams),
}

impl DetectionSpec {
    /// The name the built policy will report (`"java_ic"` / `"java_pf"` /
    /// `"java_ad"`).
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// The detection choice a [`ProtocolKind`] names (`java_ad` with the
    /// default [`AdaptiveParams`]).
    pub fn for_protocol(kind: ProtocolKind) -> DetectionSpec {
        match kind {
            ProtocolKind::JavaIc => DetectionSpec::InlineCheck,
            ProtocolKind::JavaPf => DetectionSpec::PageProtect,
            ProtocolKind::JavaAd => DetectionSpec::Adaptive(AdaptiveParams::default()),
        }
    }

    /// The [`ProtocolKind`] this spec describes.
    pub fn kind(&self) -> ProtocolKind {
        match self {
            DetectionSpec::InlineCheck => ProtocolKind::JavaIc,
            DetectionSpec::PageProtect => ProtocolKind::JavaPf,
            DetectionSpec::Adaptive(_) => ProtocolKind::JavaAd,
        }
    }

    /// Build the live policy object against a machine model.
    pub fn build(&self, machine: &MachineModel, nodes: usize) -> Arc<dyn DetectionPolicy> {
        match self {
            DetectionSpec::InlineCheck => Arc::new(InlineCheckDetection::new(machine)),
            DetectionSpec::PageProtect => Arc::new(PageProtectDetection::new(machine)),
            DetectionSpec::Adaptive(params) => {
                Arc::new(AdaptiveDetection::new(params, machine, nodes))
            }
        }
    }
}

/// Data-level choice of prefetch predictor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PredictorSpec {
    /// No hints (the directory records nothing).
    Noop,
    /// The cluster-wide prefetch directory.
    Directory {
        /// Largest number of contiguous pages one reply's hint run may name.
        hint_window: usize,
    },
}

impl PredictorSpec {
    /// The name the built policy will report (`"nohints"` / `"dir"`).
    pub fn name(&self) -> &'static str {
        match self {
            PredictorSpec::Noop => "nohints",
            PredictorSpec::Directory { .. } => "dir",
        }
    }

    /// Build the live policy object.
    pub fn build(&self) -> Arc<dyn Predictor> {
        match *self {
            PredictorSpec::Noop => Arc::new(NoopPredictor),
            PredictorSpec::Directory { hint_window } => {
                Arc::new(DirectoryPredictor { hint_window })
            }
        }
    }
}

/// Data-level choice of home-migration policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MigrationSpec {
    /// Homes never move.
    Noop,
    /// Boyer–Moore majority vote with geometric back-off.
    MajorityVote {
        /// Majority count a writer must reach before the home migrates.
        streak: u32,
    },
}

impl MigrationSpec {
    /// The name the built policy will report (`"nomig"` / `"mig"`).
    pub fn name(&self) -> &'static str {
        match self {
            MigrationSpec::Noop => "nomig",
            MigrationSpec::MajorityVote { .. } => "mig",
        }
    }

    /// Build the live policy object.
    pub fn build(&self) -> Arc<dyn MigrationPolicy> {
        match *self {
            MigrationSpec::Noop => Arc::new(NoopMigration),
            MigrationSpec::MajorityVote { streak } => Arc::new(MajorityVoteMigration { streak }),
        }
    }
}

/// Data-level choice of release-flush policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlushSpec {
    /// Synchronous (possibly batched) release flushing.
    Batched {
        /// Batch ceiling in pages; 1 disables batching.
        max_pages: usize,
    },
    /// Deferred release flushing (split transactions completing at the next
    /// acquire of the same monitor).
    Deferred {
        /// Batch ceiling in pages; 1 disables batching.
        max_pages: usize,
    },
}

impl FlushSpec {
    /// The name the built policy will report (`"sync"` / `"dfl"`).
    pub fn name(&self) -> &'static str {
        match self {
            FlushSpec::Batched { .. } => "sync",
            FlushSpec::Deferred { .. } => "dfl",
        }
    }

    /// Build the live policy object.
    pub fn build(&self) -> Arc<dyn FlushPolicy> {
        match *self {
            FlushSpec::Batched { max_pages } => Arc::new(BatchedFlush { max_pages }),
            FlushSpec::Deferred { max_pages } => Arc::new(DeferredFlush { max_pages }),
        }
    }
}

/// Data-level choice of replication policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicationSpec {
    /// No replicas (byte-identical to the pre-fault-plane engine).
    Noop,
    /// `r`-reader / `w`-quorum replicated read-homes.
    Quorum {
        /// Maximum read-replica holders per page (`r`).
        read_replicas: usize,
        /// Copies a write must reach, home included (`w`).
        write_quorum: usize,
    },
}

impl ReplicationSpec {
    /// The name the built policy will report (`"norep"` / `"quorum"`).
    pub fn name(&self) -> &'static str {
        match self {
            ReplicationSpec::Noop => "norep",
            ReplicationSpec::Quorum { .. } => "quorum",
        }
    }

    /// Build the live policy object.
    pub fn build(&self) -> Arc<dyn ReplicationPolicy> {
        match *self {
            ReplicationSpec::Noop => Arc::new(NoopReplication),
            ReplicationSpec::Quorum {
                read_replicas,
                write_quorum,
            } => Arc::new(QuorumReplication {
                read_replicas,
                write_quorum,
            }),
        }
    }
}

/// Data-level choice of node-group topology (the two-level home hierarchy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// Every node is its own self-led group: no relay, no combining,
    /// byte-identical to the pre-topology engine.
    Flat,
    /// Consecutive groups of `group_size` nodes, each led by its
    /// lowest-numbered member, which coalesces the group's cross-group
    /// fetch/diff traffic into upstream relay RPCs.
    Grouped {
        /// Nodes per group (at least 2; must divide the node count).
        group_size: usize,
    },
}

impl TopologySpec {
    /// The name reported in labels and diagnostics (`"flat"` / `"groups"`).
    pub fn name(&self) -> &'static str {
        match self {
            TopologySpec::Flat => "flat",
            TopologySpec::Grouped { .. } => "groups",
        }
    }

    /// The group size this spec describes (1 when flat).
    pub fn group_size(&self) -> usize {
        match *self {
            TopologySpec::Flat => 1,
            TopologySpec::Grouped { group_size } => group_size,
        }
    }

    /// Reject illegal shapes for a cluster of `nodes` nodes, and — when a
    /// fault schedule is armed — shapes the schedule could leave leaderless
    /// (a group whose every member is killed has nobody left to route or
    /// recover through).
    pub fn validate(&self, nodes: usize, fault: Option<&FaultSpec>) -> Result<(), PolicyError> {
        let group_size = match *self {
            TopologySpec::Flat => return Ok(()),
            TopologySpec::Grouped { group_size } => group_size,
        };
        if group_size < 2 {
            return Err(PolicyError::ZeroGroupSize);
        }
        if nodes == 0 || nodes % group_size != 0 {
            return Err(PolicyError::GroupSizeMismatch { group_size, nodes });
        }
        if let Some(spec) = fault {
            let topo = Topology::grouped(nodes, group_size).expect("validated above");
            for group in 0..topo.num_groups() {
                let all_killed = topo
                    .members(group)
                    .all(|m| spec.kill.is_some_and(|k| k.node == m.0));
                if all_killed {
                    return Err(PolicyError::LeaderlessGroup { group });
                }
            }
        }
        Ok(())
    }

    /// Build the [`Topology`] this spec describes for a cluster of `nodes`
    /// nodes.  Call [`TopologySpec::validate`] first; an invalid grouped
    /// shape falls back to flat rather than panicking.
    pub fn build(&self, nodes: usize) -> Topology {
        match *self {
            TopologySpec::Flat => Topology::flat(nodes),
            TopologySpec::Grouped { group_size } => {
                Topology::grouped(nodes, group_size).unwrap_or_else(|| Topology::flat(nodes))
            }
        }
    }
}

/// The full data-level policy selection of one run: what configs carry and
/// builders construct, turned into live objects by [`PolicySpec::build`].
///
/// This is the single place a run's policies are chosen.  The named mixes
/// the figures compare are constructors kept in [`crate::config`]:
/// [`PolicySpec::for_protocol`] (the default), [`PolicySpec::blocking`],
/// [`PolicySpec::latency_hiding`] and [`PolicySpec::directory`].
#[derive(Clone, Debug, PartialEq)]
pub struct PolicySpec {
    /// Access-detection choice.
    pub detection: DetectionSpec,
    /// Prefetch-prediction choice.
    pub predictor: PredictorSpec,
    /// Home-migration choice.
    pub migration: MigrationSpec,
    /// Release-flush choice.
    pub flush: FlushSpec,
    /// Replication choice.
    pub replication: ReplicationSpec,
    /// Node-group topology choice (the two-level home hierarchy).
    pub topology: TopologySpec,
    /// Overlapped page fetches: an explicit prefetch (`loadIntoCache`) and
    /// every speculative batch rider issue their RPC immediately but record
    /// an in-flight ticket; the requester keeps computing and pays only the
    /// *residual* latency when the page is first really used.  Overlap is
    /// an engine mechanism rather than a policy object — the engine keeps
    /// the in-flight tickets for whichever policies want them — but it is
    /// selected here with the rest.  Off by default (the paper's transport
    /// blocks on every fetch).
    pub overlapped_fetches: bool,
}

impl PolicySpec {
    /// Build the live [`PolicySet`] against a machine model.
    pub fn build(&self, machine: &MachineModel, nodes: usize) -> PolicySet {
        PolicySet {
            detection: self.detection.build(machine, nodes),
            predictor: self.predictor.build(),
            migration: self.migration.build(),
            flush: self.flush.build(),
            replication: self.replication.build(),
        }
    }

    /// Reject illegal policy combinations before any cluster state exists.
    ///
    /// The directory predictor is pointless without
    /// [`PolicySpec::overlapped_fetches`] — hints convert into overlapped
    /// fetches — so that combination is rejected rather than silently
    /// ignored.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if let DetectionSpec::Adaptive(params) = &self.detection {
            validate_adaptive(params)?;
        }
        match self.predictor {
            PredictorSpec::Directory { hint_window } => {
                if hint_window == 0 {
                    return Err(PolicyError::ZeroHintWindow);
                }
                if !self.overlapped_fetches {
                    return Err(PolicyError::HintsRequireOverlappedFetches);
                }
            }
            PredictorSpec::Noop => {}
        }
        if let MigrationSpec::MajorityVote { streak } = self.migration {
            if streak == 0 {
                return Err(PolicyError::ZeroMigrationStreak);
            }
        }
        match self.flush {
            FlushSpec::Batched { max_pages } => {
                if max_pages == 0 {
                    return Err(PolicyError::ZeroFlushBatch);
                }
            }
            FlushSpec::Deferred { max_pages } => {
                if max_pages == 0 {
                    return Err(PolicyError::DeferredFlushWithoutBatching);
                }
            }
        }
        if let ReplicationSpec::Quorum {
            read_replicas,
            write_quorum,
        } = self.replication
        {
            if read_replicas == 0 {
                return Err(PolicyError::ZeroReadReplicas);
            }
            if write_quorum == 0 || write_quorum > read_replicas + 1 {
                return Err(PolicyError::InvalidWriteQuorum);
            }
        }
        if let TopologySpec::Grouped { group_size } = self.topology {
            // The node-count and fault-schedule checks need the cluster
            // shape and run in `TopologySpec::validate` (called with the
            // node count by the config layer); the shape-free part is
            // checked here so a standalone spec still fails fast.
            if group_size < 2 {
                return Err(PolicyError::ZeroGroupSize);
            }
        }
        Ok(())
    }
}

/// Validate [`AdaptiveParams`] on their own.
pub fn validate_adaptive(params: &AdaptiveParams) -> Result<(), PolicyError> {
    if params.max_batch_pages == 0 {
        return Err(PolicyError::ZeroAdaptiveBatch);
    }
    // Written so NaN fails too: every comparison with NaN is false, and
    // `AdaptiveTuning::resolve` would otherwise turn it into `hi = 1`.
    if !params.hi_multiple.is_finite()
        || !params.lo_multiple.is_finite()
        || params.hi_multiple <= 0.0
        || params.lo_multiple < 0.0
        || params.lo_multiple >= params.hi_multiple
    {
        return Err(PolicyError::InvalidHysteresis);
    }
    Ok(())
}

/// An illegal policy selection, rejected at config-build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyError {
    /// `AdaptiveParams::max_batch_pages` is 0 (1 batches nothing, 0 fetches
    /// nothing).
    ZeroAdaptiveBatch,
    /// The adaptive switching band is not a hysteresis band
    /// (finite multiples with `0 <= lo_multiple < hi_multiple` are
    /// required).
    InvalidHysteresis,
    /// A synchronous flush with a zero page ceiling would flush nothing.
    ZeroFlushBatch,
    /// Deferred release flushing hands *batches* to the deferred queue; a
    /// zero batch ceiling leaves it nothing to defer.
    DeferredFlushWithoutBatching,
    /// A majority-vote migration with a zero streak would migrate on no
    /// evidence.
    ZeroMigrationStreak,
    /// A directory predictor with a zero hint window can never hint.
    ZeroHintWindow,
    /// The directory predictor converts hints into overlapped fetches;
    /// without [`PolicySpec::overlapped_fetches`] it would silently
    /// generate hints nobody uses.
    HintsRequireOverlappedFetches,
    /// Quorum replication with zero read replicas keeps no copies to elect
    /// a new home from.
    ZeroReadReplicas,
    /// The write quorum must name at least the home and at most the home
    /// plus every read replica (`1 <= w <= r + 1`).
    InvalidWriteQuorum,
    /// A grouped topology needs groups of at least 2 nodes (1-node groups
    /// are the flat topology; 0-node groups are nothing at all).
    ZeroGroupSize,
    /// The group size must divide the node count so every group is whole.
    GroupSizeMismatch {
        /// The requested nodes-per-group.
        group_size: usize,
        /// The cluster's node count it fails to divide.
        nodes: usize,
    },
    /// The armed fault schedule kills every member of one group, leaving
    /// nobody to route its traffic or recover its pages through.
    LeaderlessGroup {
        /// Index of the group the schedule empties.
        group: usize,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            PolicyError::ZeroAdaptiveBatch => {
                "max_batch_pages must be at least 1 (1 batches nothing, 0 fetches nothing)"
            }
            PolicyError::InvalidHysteresis => {
                "switching hysteresis needs finite 0 <= lo_multiple < hi_multiple"
            }
            PolicyError::ZeroFlushBatch => "a synchronous flush needs max_pages of at least 1",
            PolicyError::DeferredFlushWithoutBatching => {
                "deferred release flushing needs a flush batch of at least 1 page"
            }
            PolicyError::ZeroMigrationStreak => {
                "a majority-vote migration streak must be at least 1"
            }
            PolicyError::ZeroHintWindow => "hint_window must be at least 1",
            PolicyError::HintsRequireOverlappedFetches => {
                "prefetch hints require overlapped fetches (hints convert into split transactions)"
            }
            PolicyError::ZeroReadReplicas => "quorum replication needs at least one read replica",
            PolicyError::InvalidWriteQuorum => {
                "write quorum must satisfy 1 <= w <= read_replicas + 1"
            }
            PolicyError::ZeroGroupSize => {
                "a grouped topology needs groups of at least 2 nodes (use flat for 1)"
            }
            PolicyError::GroupSizeMismatch { group_size, nodes } => {
                return write!(
                    f,
                    "group size {group_size} must divide the node count {nodes}"
                );
            }
            PolicyError::LeaderlessGroup { group } => {
                return write!(
                    f,
                    "the fault schedule kills every member of group {group}; \
                     no live node remains to route or recover through"
                );
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for PolicyError {}
