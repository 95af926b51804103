//! The home-side RPC services of the DSM: page fetch and diff apply.
//!
//! Both handlers are pure mechanism — copy pages, apply diffs, charge the
//! modelled service cost — and consult two policies each at their decision
//! points: the [`Predictor`] for which hints a fetch reply carries, the
//! [`MigrationPolicy`] for whether an applied diff hands the page's home to
//! the writer, and the [`ReplicationPolicy`] on both paths for whether
//! served pages register read replicas and applied diffs perform quorum
//! writes (with the replica-shipping cost charged in the service time).

use std::sync::Arc;

use hyperion_model::{CpuModel, DsmCostModel, NodeStats};
use hyperion_pm2::{Node, NodeId, PageId, RpcHandler, RpcReply, SLOTS_PER_PAGE};

use crate::diff::{decode_diff_message, decode_page_fetch_request, encode_migration_grant};
use crate::policy::{FetchObservation, MigrationPolicy, Predictor, ReplicationPolicy};
use crate::table::DsmStore;

/// Bytes of one page on the wire.
pub(crate) const PAGE_BYTES: usize = SLOTS_PER_PAGE * 8;

/// Copy the span `[first, first + count)` out of the authoritative home
/// frames, running the predictor's per-page bookkeeping and the
/// replication policy's read-replica registration exactly as the direct
/// fetch path does.  Shared between [`PageFetchService`] and the group
/// relay so a fetch served through a leader is byte-identical to one
/// served directly.
pub(crate) fn copy_home_pages(
    store: &DsmStore,
    predictor: &dyn Predictor,
    replication: &dyn ReplicationPolicy,
    home: NodeId,
    caller: NodeId,
    first: PageId,
    count: u32,
) -> (Vec<u8>, Option<FetchObservation>) {
    let _serving = store.serving_guard();
    let mut bytes = Vec::with_capacity(PAGE_BYTES * count as usize);
    // Directory bookkeeping exists only when the predictor opts in: a
    // `NoopPredictor` declines the observation, and the fetch handler
    // does exactly what the plain split-transaction transport did (no
    // stamps, no history writes).
    let obs = predictor.observe_fetch(store, home, caller, first, count);
    for k in 0..count as u64 {
        let page = PageId(first.0 + k);
        // Serve the *current* home's copy: normally that is the node the
        // request was addressed to, but a concurrent home migration may
        // have moved the page after the caller looked its home up, in
        // which case the old home forwards the authoritative frame (the
        // shared store gives the modelled handler direct access to it).
        let home_now = store.home_of(page);
        debug_assert!(
            home_now == home || store.page_migrated(page),
            "page fetch sent to a node that is not the page's home"
        );
        let f = store.frame(home_now, page);
        if let Some(o) = &obs {
            predictor.record_served_page(f, caller, o);
        }
        bytes.extend_from_slice(&f.data().snapshot_bytes());
        if replication.replicates() {
            // The served copy doubles as a read replica: the caller is
            // now a candidate home should this node fail.
            replication.on_page_served(store, page, caller);
        }
    }
    (bytes, obs)
}

/// What applying one diff message to the home frames produced: the slot
/// counts that price the service time and the at-most-one migration grant.
pub(crate) struct DiffOutcome {
    /// Diff slots applied across all pages of the message.
    pub(crate) slots: usize,
    /// Extra (holder, slot) pairs shipped by quorum replica writes.
    pub(crate) quorum_slots: usize,
    /// Number of per-page diff batches in the message.
    pub(crate) batches: usize,
    /// Home hand-over granted to the writer, with the page snapshot the
    /// grant reply ships.
    pub(crate) grant: Option<(PageId, Vec<u8>)>,
}

/// Apply one encoded diff message to the authoritative home frames on
/// behalf of `caller`, consulting the migration policy for a home
/// hand-over and the replication policy for quorum writes.  Shared
/// between [`DiffApplyService`] and the group relay: a diff batch routed
/// through a leader mutates memory exactly once, identically to the
/// direct path (the relay only re-prices the RPC fan-in).
pub(crate) fn apply_diff_message(
    store: &DsmStore,
    migration: &dyn MigrationPolicy,
    replication: &dyn ReplicationPolicy,
    nominal_home: NodeId,
    caller: NodeId,
    payload: &[u8],
) -> DiffOutcome {
    let _serving = store.serving_guard();
    let diffs = decode_diff_message(payload);
    let mut out = DiffOutcome {
        slots: 0,
        quorum_slots: 0,
        batches: diffs.len(),
        grant: None,
    };
    for (page, entries) in &diffs {
        out.slots += entries.len();
        // Apply to the *current* home frame (see `copy_home_pages` on why
        // this may differ from the addressed node under concurrent
        // migration).
        let home_now = store.home_of(*page);
        debug_assert!(
            home_now == nominal_home || store.page_migrated(*page),
            "diff sent to a node that is not the page's home"
        );
        let home_frame = store.frame(home_now, *page);
        debug_assert!(home_frame.is_home() || store.page_migrated(*page));
        for &(slot, value) in entries {
            home_frame.apply_diff_slot(slot as usize, value);
        }
        // Migration decision: one grant per message at most (the
        // `grant.is_none()` guard runs first so a policy's vote state is
        // untouched once this message granted).
        let migrate = out.grant.is_none() && migration.should_migrate(home_frame, caller, home_now);
        // The page's bytes changed: stale leader-cached copies must not be
        // treated as current by the fetch-combining version check.
        store.note_page_changed(*page);
        if migrate {
            // Execute the hand-over while still inside the handler so no
            // fetch can observe a half-migrated page: promote the
            // writer's frame from the authoritative snapshot (keeping
            // any newer local writes it has pending), then re-route the
            // home and demote the old home to an ordinary cached copy.
            let snapshot = home_frame.data().snapshot_bytes();
            let writer = store.frame(caller, *page);
            writer.promote_to_home(&snapshot);
            writer.mig_inherit_required(home_frame.mig_required());
            store.set_home(*page, caller);
            home_frame.demote_from_home();
            out.grant = Some((*page, snapshot));
        }
        if replication.replicates() {
            // Quorum write: advance the page's replica version and ship
            // the applied slots to the stamped holders.  The shipping is
            // charged as extra apply work per (holder, slot) pair.
            let members = replication.on_diff_applied(store, *page);
            out.quorum_slots += members * entries.len();
        }
    }
    out
}

/// RPC service: ship a copy of a home page to a requesting node and, when
/// the predictor asks for it, piggyback "a neighbour also fetched p..p+k"
/// hints derived from the home's per-page fetch history.
pub(crate) struct PageFetchService {
    pub(crate) store: Arc<DsmStore>,
    pub(crate) cpu: CpuModel,
    pub(crate) dsm: DsmCostModel,
    pub(crate) predictor: Arc<dyn Predictor>,
    pub(crate) replication: Arc<dyn ReplicationPolicy>,
}

impl RpcHandler for PageFetchService {
    fn handle(&self, target: &Node, caller: NodeId, payload: &[u8]) -> RpcReply {
        let (first, count, hints_ok) = decode_page_fetch_request(payload);
        let home = target.id();
        let (mut bytes, obs) = copy_home_pages(
            &self.store,
            self.predictor.as_ref(),
            self.replication.as_ref(),
            home,
            caller,
            first,
            count,
        );
        let mut hint_entries = 0u16;
        if hints_ok {
            if let Some(o) = &obs {
                if let Some((start, run)) =
                    self.predictor
                        .predict(&self.store, home, caller, first, count, o)
                {
                    crate::diff::append_fetch_hints(&mut bytes, &[(start, run)]);
                    hint_entries = 1;
                    NodeStats::bump_by(&target.stats.hints_sent, run as u64);
                }
            }
        }
        let service = self.cpu.cycles(
            self.dsm.page_copy_cycles_per_slot * (SLOTS_PER_PAGE * count as usize) as f64
                + self.dsm.batch_page_cycles * (count - 1) as f64
                + self.dsm.hint_entry_cycles * hint_entries as f64,
        );
        RpcReply::with_data(bytes, service)
    }

    fn name(&self) -> &'static str {
        "dsm.page_fetch"
    }
}

/// RPC service: apply one or more field-granularity diffs to home pages,
/// and — when the migration policy says so — hand the home of a
/// write-shared page over to the writer that dominates its diff traffic.
pub(crate) struct DiffApplyService {
    pub(crate) store: Arc<DsmStore>,
    pub(crate) cpu: CpuModel,
    pub(crate) dsm: DsmCostModel,
    pub(crate) migration: Arc<dyn MigrationPolicy>,
    pub(crate) replication: Arc<dyn ReplicationPolicy>,
}

impl RpcHandler for DiffApplyService {
    fn handle(&self, target: &Node, caller: NodeId, payload: &[u8]) -> RpcReply {
        let out = apply_diff_message(
            &self.store,
            self.migration.as_ref(),
            self.replication.as_ref(),
            target.id(),
            caller,
            payload,
        );
        let service = self.cpu.cycles(
            self.dsm.diff_apply_cycles_per_slot * (out.slots + out.quorum_slots) as f64
                + self.dsm.batch_flush_cycles * (out.batches - 1) as f64,
        );
        match out.grant {
            // The grant reply carries the page snapshot so shipping the
            // authoritative copy to the new home is charged on the wire.
            Some((page, snapshot)) => {
                RpcReply::with_data(encode_migration_grant(page, &snapshot), service)
            }
            None => RpcReply::ack(service),
        }
    }

    fn name(&self) -> &'static str {
        "dsm.diff_apply"
    }
}
