//! Per-node page tables and the cluster-wide DSM store.
//!
//! Every node keeps one [`PageFrame`] per page of the
//! global address space.  The home node's frame *is* the main-memory copy of
//! the page; the other nodes' frames are caches.  Frame tables grow lazily as
//! pages are touched.
//!
//! A node's frame table is an append-only [`SegmentTable`]: frames never
//! move once created, so [`DsmStore::frame`] hands out a plain
//! `&PageFrame` after a few loads — no lock, no reference count.  Only
//! growth serialises, on the table's own append mutex.  A frame is handed
//! out only once the table's length counts it (a lookup that races a
//! growth waits for it in `grow_table`), so [`DsmStore::for_each_frame`] —
//! and with it every flush and invalidation — visits every frame in use.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hyperion_pm2::{IsoAllocator, NodeId, PageId, SegmentTable, Topology};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::page::PageFrame;

/// Replication metadata of one page: which nodes hold read replicas and how
/// current each holder is.
///
/// `version` counts the quorum writes the page's home has applied; each
/// holder records the version it was last brought up to.  Recovery elects
/// the *newest* live holder as the page's next home (ties go to the lowest
/// node id, so elections are deterministic).
#[derive(Clone, Debug, Default)]
pub struct ReplicaSet {
    /// Monotone count of quorum writes applied to the page.
    pub version: u64,
    /// `(holder node id, version the holder was last updated to)`, in
    /// registration order.
    pub holders: Vec<(u32, u64)>,
}

/// The cluster-wide DSM store: one frame table per node plus the allocator
/// that knows each page's home.
///
/// This is the piece of state shared between the protocol engine and the RPC
/// handlers registered with the communication subsystem (the handlers read
/// home frames and apply diffs to them).
pub struct DsmStore {
    allocator: Arc<IsoAllocator>,
    /// One frame table per node, indexed by page id.  Frames are boxed so a
    /// segment's up-front allocation is one pointer per page, not a frame.
    nodes: Vec<SegmentTable<Box<PageFrame>>>,
    /// Pages whose home has *ever* migrated away from the allocator's
    /// static assignment (home migration).  An entry stays even when a page
    /// migrates back to its static home, so per-page "has this page ever
    /// moved" queries stay answerable.
    home_overrides: RwLock<HashMap<u64, NodeId>>,
    /// Number of entries in `home_overrides`, readable without the lock so
    /// the migration-free common case of [`DsmStore::home_of`] stays a
    /// lock-free lookup in the allocator's append-only home table.
    num_overrides: std::sync::atomic::AtomicUsize,
    /// The node-group shape of the cluster (flat single-node groups by
    /// default).  The directory keys its per-requester state by group, the
    /// relay layer routes cross-group traffic through group leaders, and
    /// under the flat default both collapse to the pre-topology behaviour.
    topology: Topology,
    /// Prefetch directory: per-home fetch sequence counters.  Every page
    /// fetch a home serves bumps its counter; the per-page observations on
    /// the home frames are stamped with it, which is how "recently fetched"
    /// is defined without a clock.
    fetch_seq: Vec<std::sync::atomic::AtomicU64>,
    /// Prefetch directory: for each (home, requester *group*) pair, the
    /// page id + 1 of the most recent page that home served to that group
    /// (0 = none).  Consecutive ids form the stride runs the directory
    /// extends.  Keying by group instead of node keeps the table
    /// `homes × groups` instead of `homes × nodes`; under the flat
    /// topology the two coincide exactly.
    last_fetch: Vec<std::sync::atomic::AtomicU64>,
    /// Per-page change counters, maintained only under a grouped topology:
    /// bumped on every diff application and home change so a group
    /// leader's relay cache can tell "unchanged since my last upstream
    /// fetch" apart from stale.  Empty (and never consulted) when flat.
    page_versions: RwLock<HashMap<u64, Arc<AtomicU64>>>,
    /// Groups whose leader has failed: their members stop relaying and fall
    /// back to direct home RPCs (combining degrades, correctness does not).
    degraded_groups: RwLock<HashSet<usize>>,
    /// Entry count of `degraded_groups`, readable without the lock.
    num_degraded: std::sync::atomic::AtomicUsize,
    /// Replication directory: per-page read-replica holders and their
    /// quorum-write versions (empty under the Noop replication policy).
    replicas: RwLock<HashMap<u64, ReplicaSet>>,
    /// Nodes that have failed fail-stop and been recovered from.
    failed: RwLock<HashSet<u32>>,
    /// Entry count of `failed`, readable without the lock so the
    /// failure-free common case stays a plain load.
    num_failed: std::sync::atomic::AtomicUsize,
    /// Serialises node recovery: the first thread to observe a dead peer
    /// re-homes every page it served; concurrent observers wait here and
    /// then see the already-recovered routing.  Page-serving handlers and
    /// cache invalidation hold it shared, so re-homing is atomic with
    /// respect to them.
    recovery: RwLock<()>,
}

impl DsmStore {
    /// Create a store for `num_nodes` nodes sharing `allocator`'s address
    /// space, under the flat (ungrouped) topology.
    pub fn new(allocator: Arc<IsoAllocator>, num_nodes: usize) -> Arc<Self> {
        DsmStore::with_topology(allocator, Topology::flat(num_nodes))
    }

    /// Create a store under an explicit node-group [`Topology`] (whose node
    /// count is the cluster's node count).
    pub fn with_topology(allocator: Arc<IsoAllocator>, topology: Topology) -> Arc<Self> {
        let num_nodes = topology.nodes();
        assert!(num_nodes > 0, "DSM store needs at least one node");
        let dir_keys = topology.num_groups();
        Arc::new(DsmStore {
            allocator,
            nodes: (0..num_nodes).map(|_| SegmentTable::new()).collect(),
            home_overrides: RwLock::new(HashMap::new()),
            num_overrides: std::sync::atomic::AtomicUsize::new(0),
            topology,
            fetch_seq: (0..num_nodes)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
            last_fetch: (0..num_nodes * dir_keys)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
            page_versions: RwLock::new(HashMap::new()),
            degraded_groups: RwLock::new(HashSet::new()),
            num_degraded: std::sync::atomic::AtomicUsize::new(0),
            replicas: RwLock::new(HashMap::new()),
            failed: RwLock::new(HashSet::new()),
            num_failed: std::sync::atomic::AtomicUsize::new(0),
            recovery: RwLock::new(()),
        })
    }

    /// The node-group topology this store routes under.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The directory key of a requester: its group index.  Under the flat
    /// topology this is the node index, so per-group directory state is
    /// byte-identical to the historical per-node state.
    #[inline]
    pub fn dir_key(&self, requester: NodeId) -> usize {
        self.topology.group_of(requester)
    }

    /// The nonzero directory tag of a requester (`dir_key + 1`; 0 means
    /// "empty slot" in the frames' recent-fetcher ring).
    #[inline]
    pub fn dir_tag(&self, requester: NodeId) -> u64 {
        self.dir_key(requester) as u64 + 1
    }

    /// The iso-address allocator behind this store.
    pub fn allocator(&self) -> &IsoAllocator {
        &self.allocator
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Home node of `page`: the allocator's static assignment unless the
    /// page's home has migrated.  With migration disabled (or before the
    /// first grant) this takes no lock: one atomic load of the override
    /// count plus the allocator's lock-free home lookup.
    #[inline]
    pub fn home_of(&self, page: PageId) -> NodeId {
        if self
            .num_overrides
            .load(std::sync::atomic::Ordering::Acquire)
            > 0
        {
            let overrides = self.home_overrides.read();
            if let Some(&home) = overrides.get(&page.0) {
                return home;
            }
        }
        self.allocator.home_of(page)
    }

    /// Re-home `page` on `node` (home migration).  The caller is responsible
    /// for flipping the two affected frames' home flags in the same step.
    pub fn set_home(&self, page: PageId, node: NodeId) {
        let mut overrides = self.home_overrides.write();
        overrides.insert(page.0, node);
        self.num_overrides
            .store(overrides.len(), std::sync::atomic::Ordering::Release);
        drop(overrides);
        // A home change invalidates any relay-cache copy of the page.
        self.note_page_changed(page);
    }

    /// Bump `page`'s change counter (grouped topologies only; a no-op when
    /// flat).  Called on every diff application and home change so group
    /// leaders' relay caches can detect staleness.
    pub fn note_page_changed(&self, page: PageId) {
        if !self.topology.is_grouped() {
            return;
        }
        if let Some(v) = self.page_versions.read().get(&page.0) {
            v.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.page_versions
            .write()
            .entry(page.0)
            .or_default()
            .fetch_add(1, Ordering::Relaxed);
    }

    /// `page`'s current change counter (0 until the first change; always 0
    /// under the flat topology, which never consults it).
    pub fn page_version(&self, page: PageId) -> u64 {
        self.page_versions
            .read()
            .get(&page.0)
            .map_or(0, |v| v.load(Ordering::Relaxed))
    }

    /// Mark `group`'s combining degraded (its leader died): members fall
    /// back to direct home RPCs from now on.
    pub fn mark_group_degraded(&self, group: usize) {
        let mut degraded = self.degraded_groups.write();
        degraded.insert(group);
        self.num_degraded
            .store(degraded.len(), std::sync::atomic::Ordering::Release);
    }

    /// True if `group`'s leader has failed and its combining is degraded.
    pub fn group_degraded(&self, group: usize) -> bool {
        self.num_degraded.load(std::sync::atomic::Ordering::Acquire) > 0
            && self.degraded_groups.read().contains(&group)
    }

    /// Number of pages whose home has ever migrated away from (and possibly
    /// back to) their allocation-time node.
    pub fn migrated_pages(&self) -> usize {
        self.num_overrides
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// True if `page`'s home has ever migrated (used to scope the handler
    /// routing assertions: a stale route is only legitimate for a page that
    /// actually moved).
    pub fn page_migrated(&self, page: PageId) -> bool {
        self.migrated_pages() > 0 && self.home_overrides.read().contains_key(&page.0)
    }

    /// Advance and return home `home`'s prefetch-directory fetch sequence
    /// (the stamp recorded on the served pages' directory entries).
    pub fn next_fetch_seq(&self, home: NodeId) -> u64 {
        self.fetch_seq[home.index()].fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
    }

    /// The page id (`+ 1`, 0 = none) home `home` most recently served to
    /// `requester`'s group, then replace it with `page`.  The directory's
    /// stride detector compares the returned value against the page being
    /// served.  Group-keyed so the table stays `homes × groups`; flat
    /// topologies key per node exactly as before.
    pub fn swap_last_fetch(&self, home: NodeId, requester: NodeId, page: PageId) -> u64 {
        self.last_fetch[home.index() * self.topology.num_groups() + self.dir_key(requester)]
            .swap(page.0 + 1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Node `node`'s frame for `page`, creating it (and any missing
    /// lower-numbered frames) on first touch.  Lock-free once the frame
    /// exists; the reference stays valid for the store's lifetime.
    ///
    /// # Panics
    /// Panics if `page` has not been allocated or `node` is out of range.
    #[inline]
    pub fn frame(&self, node: NodeId, page: PageId) -> &PageFrame {
        match self.nodes[node.index()].get(page.index()) {
            Some(frame) => frame,
            None => self.grow_table(node, page),
        }
    }

    /// Visit every currently materialised frame of `node` together with its
    /// page id (used by `invalidateCache` and `updateMainMemory`).
    pub fn for_each_frame<'a>(&'a self, node: NodeId, mut f: impl FnMut(PageId, &'a PageFrame)) {
        for (i, frame) in self.nodes[node.index()].iter() {
            f(PageId(i as u64), frame);
        }
    }

    /// Number of frames currently materialised on `node`.
    pub fn frames_on(&self, node: NodeId) -> usize {
        self.nodes[node.index()].len()
    }

    /// Record `holder` as a read-replica of `page`, up to `cap` holders
    /// (the replication policy's `r`).  A new holder starts at the page's
    /// current quorum version — it just fetched the current bytes.  The
    /// page's home never registers as its own replica.
    pub fn register_replica(&self, page: PageId, holder: NodeId, cap: usize) {
        if holder == self.home_of(page) {
            return;
        }
        let mut replicas = self.replicas.write();
        let set = replicas.entry(page.0).or_default();
        if set.holders.iter().any(|(h, _)| *h == holder.0) {
            let version = set.version;
            if let Some(entry) = set.holders.iter_mut().find(|(h, _)| *h == holder.0) {
                entry.1 = version;
            }
            return;
        }
        if set.holders.len() < cap {
            set.holders.push((holder.0, set.version));
        }
    }

    /// Apply one quorum write to `page`: advance its version and bring the
    /// first `quorum - 1` registered holders up to it (the home itself is
    /// the quorum's first member).  Returns how many holders were updated —
    /// the cost the diff-apply handler charges for shipping the update.
    pub fn quorum_update(&self, page: PageId, quorum: usize) -> usize {
        let mut replicas = self.replicas.write();
        let set = replicas.entry(page.0).or_default();
        set.version += 1;
        let version = set.version;
        let members = quorum.saturating_sub(1).min(set.holders.len());
        for entry in set.holders.iter_mut().take(members) {
            entry.1 = version;
        }
        members
    }

    /// The replica set of `page`, if any holder has registered.
    pub fn replica_set(&self, page: PageId) -> Option<ReplicaSet> {
        self.replicas.read().get(&page.0).cloned()
    }

    /// The live replica holder with the newest quorum version (ties go to
    /// the lowest node id), if any.  This is the node recovery elects as
    /// the page's next home.
    pub fn newest_live_replica(&self, page: PageId) -> Option<NodeId> {
        let replicas = self.replicas.read();
        let set = replicas.get(&page.0)?;
        let failed = self.failed.read();
        set.holders
            .iter()
            .filter(|(h, _)| !failed.contains(h))
            .max_by(|(ha, va), (hb, vb)| va.cmp(vb).then(hb.cmp(ha)))
            .map(|(h, _)| NodeId(*h))
    }

    /// Mark `node` failed fail-stop.  Returns `true` the first time —
    /// exactly one caller performs the recovery of the node's pages.
    pub fn mark_failed(&self, node: NodeId) -> bool {
        let mut failed = self.failed.write();
        let fresh = failed.insert(node.0);
        self.num_failed
            .store(failed.len(), std::sync::atomic::Ordering::Release);
        fresh
    }

    /// True if `node` has been marked failed.
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.num_failed.load(std::sync::atomic::Ordering::Acquire) > 0
            && self.failed.read().contains(&node.0)
    }

    /// Number of nodes marked failed so far.
    pub fn failed_nodes(&self) -> usize {
        self.num_failed.load(std::sync::atomic::Ordering::Acquire)
    }

    /// The lowest-id node not marked failed (the deterministic fallback
    /// home when a page has no live replica).
    ///
    /// # Panics
    /// Panics if every node has failed.
    pub fn first_live_node(&self) -> NodeId {
        let failed = self.failed.read();
        (0..self.nodes.len() as u32)
            .find(|n| !failed.contains(n))
            .map(NodeId)
            .expect("at least one live node")
    }

    /// Take the cluster-wide recovery lock: the holder is the one thread
    /// re-homing a dead node's pages.
    pub fn recovery_guard(&self) -> RwLockWriteGuard<'_, ()> {
        self.recovery.write()
    }

    /// Hold off recovery while a handler resolves a page's home and reads
    /// or writes its home frame: a handler then sees a page either wholly
    /// before re-homing (its write lands in the snapshot) or wholly after
    /// (it resolves the elected home), never a demoted frame that is not
    /// yet re-routed.  `invalidateCache` holds it from its home check to
    /// the invalidation, so recovery never promotes a frame in between.
    /// The holder must not issue an RPC: recovery runs on the RPC path.
    pub fn serving_guard(&self) -> RwLockReadGuard<'_, ()> {
        self.recovery.read()
    }

    #[cold]
    fn grow_table(&self, node: NodeId, page: PageId) -> &PageFrame {
        let allocated = self.allocator.num_pages();
        assert!(
            page.index() < allocated,
            "page {page:?} accessed before being allocated ({allocated} pages exist)"
        );
        let frames = &self.nodes[node.index()];
        frames.extend_to(page.index(), |pid| {
            // Consult the (possibly migrated) current home, not the
            // allocator's static table: a node materialising its frame after
            // a migration must see the page's present-day home.
            Box::new(if self.home_of(PageId(pid as u64)) == node {
                PageFrame::new_home()
            } else {
                PageFrame::new_remote()
            })
        });
        frames
            .get(page.index())
            .expect("frame materialised just above")
    }
}

impl std::fmt::Debug for DsmStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsmStore")
            .field("num_nodes", &self.nodes.len())
            .field("pages_allocated", &self.allocator.num_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(nodes: usize) -> (Arc<IsoAllocator>, Arc<DsmStore>) {
        let alloc = Arc::new(IsoAllocator::new(nodes));
        let store = DsmStore::new(Arc::clone(&alloc), nodes);
        (alloc, store)
    }

    #[test]
    fn frames_materialise_with_correct_home_flag() {
        let (alloc, store) = store(3);
        let a = alloc.alloc(4, NodeId(1));
        let page = a.page();

        assert!(store.frame(NodeId(1), page).is_home());
        assert!(!store.frame(NodeId(0), page).is_home());
        assert!(!store.frame(NodeId(2), page).is_home());
        assert_eq!(store.home_of(page), NodeId(1));
    }

    #[test]
    fn growth_fills_all_lower_pages() {
        let (alloc, store) = store(2);
        let _ = alloc.alloc(600, NodeId(0)); // spans two fresh pages
        let b = alloc.alloc(600, NodeId(1));
        // Touch only the last page; earlier frames must exist afterwards.
        let last = b.offset(599).page();
        store.frame(NodeId(0), last);
        assert_eq!(store.frames_on(NodeId(0)), last.index() + 1);
        // Other nodes are independent.
        assert_eq!(store.frames_on(NodeId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "before being allocated")]
    fn touching_unallocated_page_panics() {
        let (_alloc, store) = store(1);
        store.frame(NodeId(0), PageId(99));
    }

    #[test]
    fn frames_at_segment_boundaries_get_the_right_home_flag() {
        // The frame table's segments hold 512, 1024, 2048, ... frames:
        // 0/511 are the first segment's ends, 512/1535 the second's, 1536
        // opens the third.  Pages alternate homes in runs of one.
        let (alloc, store) = store(2);
        while alloc.num_pages() <= 1536 {
            let home = NodeId((alloc.num_pages() % 2) as u32);
            alloc.alloc_page_aligned(1, home);
        }
        for p in [0u64, 511, 512, 1535, 1536] {
            let page = PageId(p);
            let home = alloc.home_of(page);
            assert_eq!(home, NodeId((p % 2) as u32), "allocator home of {p}");
            for n in 0..2u32 {
                assert_eq!(
                    store.frame(NodeId(n), page).is_home(),
                    home == NodeId(n),
                    "node {n}, page {p}"
                );
            }
        }
        assert_eq!(store.frames_on(NodeId(0)), 1537);
    }

    #[test]
    fn frame_references_survive_table_growth() {
        let (alloc, store) = store(2);
        let a = alloc.alloc(4, NodeId(0));
        let frame = store.frame(NodeId(1), a.page());
        frame.install_copy(&crate::page::PageData::zeroed().snapshot_bytes());
        // Grow node 1's table across several segments (512 + 1024 + 2048
        // + 4096 frames): the frame handed out above must not move.
        let big = alloc.alloc_page_aligned(hyperion_pm2::SLOTS_PER_PAGE * 8000, NodeId(0));
        let last = big
            .offset(hyperion_pm2::SLOTS_PER_PAGE as u64 * 8000 - 1)
            .page();
        store.frame(NodeId(1), last);
        assert!(store.frames_on(NodeId(1)) > 512 + 1024 + 2048 + 4096);
        assert!(std::ptr::eq(frame, store.frame(NodeId(1), a.page())));
        assert!(store.frame(NodeId(1), a.page()).is_present());
    }

    #[test]
    fn for_each_frame_visits_every_materialised_frame() {
        let (alloc, store) = store(2);
        let a = alloc.alloc(4, NodeId(0));
        let b = alloc.alloc(4, NodeId(1));
        store.frame(NodeId(0), a.page());
        store.frame(NodeId(0), b.page());
        let mut seen = Vec::new();
        store.for_each_frame(NodeId(0), |pid, f| seen.push((pid, f.is_home())));
        assert!(seen.len() >= 2);
        assert!(seen.iter().any(|(pid, home)| *pid == a.page() && *home));
        assert!(seen.iter().any(|(pid, home)| *pid == b.page() && !*home));
    }

    #[test]
    fn replica_registration_quorum_updates_and_election() {
        let (alloc, store) = store(4);
        let page = alloc.alloc(4, NodeId(0)).page();
        store.register_replica(page, NodeId(0), 2); // the home never registers
        store.register_replica(page, NodeId(1), 2);
        store.register_replica(page, NodeId(2), 2);
        store.register_replica(page, NodeId(3), 2); // over the r cap: ignored
        assert_eq!(store.replica_set(page).unwrap().holders.len(), 2);

        // One w=2 quorum write: the home plus the first registered holder.
        assert_eq!(store.quorum_update(page, 2), 1);
        assert_eq!(store.newest_live_replica(page), Some(NodeId(1)));

        // Kill the newest holder: the election falls back to the next one.
        assert!(store.mark_failed(NodeId(1)));
        assert!(
            !store.mark_failed(NodeId(1)),
            "second observer is not first"
        );
        assert!(store.is_failed(NodeId(1)));
        assert_eq!(store.failed_nodes(), 1);
        assert_eq!(store.newest_live_replica(page), Some(NodeId(2)));
        assert_eq!(store.first_live_node(), NodeId(0));

        // A re-registered holder is refreshed to the current version.
        assert_eq!(store.quorum_update(page, 3), 2);
        store.register_replica(page, NodeId(2), 2);
        let set = store.replica_set(page).unwrap();
        assert!(set.holders.contains(&(2, set.version)));
    }

    #[test]
    fn grouped_store_keys_directory_by_group_and_tracks_versions() {
        let alloc = Arc::new(IsoAllocator::new(4));
        let topo = Topology::grouped(4, 2).unwrap();
        let store = DsmStore::with_topology(Arc::clone(&alloc), topo);
        let page = alloc.alloc(4, NodeId(0)).page();

        // Nodes 2 and 3 share a group, hence a directory key/tag.
        assert_eq!(store.dir_key(NodeId(2)), 1);
        assert_eq!(store.dir_key(NodeId(3)), 1);
        assert_eq!(store.dir_tag(NodeId(3)), 2);
        // A fetch by node 2 leaves a stride trail node 3 continues.
        assert_eq!(store.swap_last_fetch(NodeId(0), NodeId(2), page), 0);
        assert_eq!(
            store.swap_last_fetch(NodeId(0), NodeId(3), page),
            page.0 + 1
        );

        // Change counters move on diffs/home changes only when grouped.
        assert_eq!(store.page_version(page), 0);
        store.note_page_changed(page);
        store.note_page_changed(page);
        assert_eq!(store.page_version(page), 2);
        store.set_home(page, NodeId(1));
        assert_eq!(store.page_version(page), 3);

        // Degraded-group flags.
        assert!(!store.group_degraded(1));
        store.mark_group_degraded(1);
        assert!(store.group_degraded(1));
        assert!(!store.group_degraded(0));
    }

    #[test]
    fn flat_store_never_tracks_page_versions() {
        let (alloc, store) = store(2);
        let page = alloc.alloc(4, NodeId(0)).page();
        assert!(!store.topology().is_grouped());
        store.note_page_changed(page);
        assert_eq!(store.page_version(page), 0);
        // Flat dir keys coincide with node indices.
        assert_eq!(store.dir_key(NodeId(1)), 1);
        assert_eq!(store.dir_tag(NodeId(1)), 2);
    }

    #[test]
    fn concurrent_growth_is_safe() {
        let (alloc, store) = store(4);
        let addr = alloc.alloc(hyperion_pm2::SLOTS_PER_PAGE * 8, NodeId(0));
        let last = addr
            .offset(hyperion_pm2::SLOTS_PER_PAGE as u64 * 8 - 1)
            .page();
        std::thread::scope(|s| {
            for n in 0..4u32 {
                let store = &store;
                s.spawn(move || {
                    for p in 0..=last.index() {
                        let f = store.frame(NodeId(n), PageId(p as u64));
                        assert_eq!(f.is_home(), n == 0);
                    }
                });
            }
        });
        for n in 0..4u32 {
            assert_eq!(store.frames_on(NodeId(n)), last.index() + 1);
        }
    }
}
