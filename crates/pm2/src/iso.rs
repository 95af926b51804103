//! Iso-address global memory allocation.
//!
//! PM2 allocates shared data at the *same virtual address on every node*
//! ("iso-address" allocation), which lets pages be replicated and migrated
//! while keeping raw pointers valid (§3.1 of the paper).  The reproduction
//! models the shared address space as a flat array of 8-byte **slots**
//! grouped into **pages**; a [`GlobalAddr`] is a slot index valid on every
//! node, and each page has a fixed *home node* chosen at allocation time.
//!
//! Objects are packed into pages per home node, so several small objects
//! share a page — this is what produces the pre-fetching effect the paper
//! mentions ("`loadIntoCache` actually retrieves the whole page on which the
//! object is located").

use parking_lot::Mutex;

use crate::node::NodeId;
use crate::segtable::SegmentTable;

/// Number of 8-byte slots per page.
pub const SLOTS_PER_PAGE: usize = 512;
/// Size of one slot in bytes.  Every Java field / array element is modelled
/// as one slot, which keeps field accesses word-atomic.
pub const SLOT_BYTES: usize = 8;
/// Page size in bytes (matches the 4 KiB pages of the Linux 2.2 clusters).
pub const PAGE_BYTES: usize = SLOTS_PER_PAGE * SLOT_BYTES;

/// Identifier of a page of the global address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl PageId {
    /// Page index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A global address: an 8-byte-slot index into the single shared address
/// space seen identically by every node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalAddr(pub u64);

impl GlobalAddr {
    /// The (invalid) null address.  Slot 0 of page 0 is reserved so that a
    /// zeroed slot can never be confused with a valid reference.
    pub const NULL: GlobalAddr = GlobalAddr(0);

    /// Page containing this slot.
    #[inline]
    pub fn page(self) -> PageId {
        PageId(self.0 / SLOTS_PER_PAGE as u64)
    }

    /// Slot offset within the page.
    #[inline]
    pub fn slot(self) -> usize {
        (self.0 % SLOTS_PER_PAGE as u64) as usize
    }

    /// Address `n` slots after this one.
    #[inline]
    pub fn offset(self, n: u64) -> GlobalAddr {
        GlobalAddr(self.0 + n)
    }

    /// True for the null address.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for GlobalAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:x}", self.0 * SLOT_BYTES as u64)
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct OpenPage {
    page: Option<PageId>,
    next_slot: usize,
}

struct AllocState {
    /// Per-home-node partially filled page for small-object packing.
    open_pages: Vec<OpenPage>,
    /// Total slots handed out (for reporting).
    slots_allocated: u64,
}

/// The iso-address allocator: assigns global addresses and home nodes.
///
/// Allocation is a setup-time activity in all of the paper's benchmarks, so
/// allocations serialise on one mutex.  Home lookups happen on every DSM
/// routing decision, so they never take it: page homes live in an
/// append-only [`SegmentTable`] whose length is published after the new
/// pages' homes are written.
pub struct IsoAllocator {
    state: Mutex<AllocState>,
    /// Home node of every allocated page, indexed by page id.
    homes: SegmentTable<NodeId>,
    num_nodes: usize,
}

impl IsoAllocator {
    /// Create an allocator for a cluster of `num_nodes` nodes.
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero.
    pub fn new(num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "allocator needs at least one node");
        // Page 0 exists but slot 0 is reserved for NULL; it belongs to node 0
        // and only node 0 may pack further small objects into it.
        let mut open_pages = vec![
            OpenPage {
                page: None,
                next_slot: 0,
            };
            num_nodes
        ];
        open_pages[0] = OpenPage {
            page: Some(PageId(0)),
            next_slot: 1,
        };
        let homes = SegmentTable::new();
        homes.extend_to(0, |_| NodeId(0));
        IsoAllocator {
            state: Mutex::new(AllocState {
                open_pages,
                slots_allocated: 1,
            }),
            homes,
            num_nodes,
        }
    }

    /// Number of nodes this allocator distributes homes over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Allocate `slots` contiguous slots homed on `home`.
    ///
    /// Small requests are packed into the home's currently open page (so
    /// objects allocated together share pages); requests larger than the
    /// remaining space in the open page start on a fresh page and may span
    /// several contiguous pages, all homed on `home`.
    ///
    /// # Panics
    /// Panics if `slots` is zero or `home` is out of range.
    pub fn alloc(&self, slots: usize, home: NodeId) -> GlobalAddr {
        assert!(slots > 0, "cannot allocate zero slots");
        assert!(
            home.index() < self.num_nodes,
            "home {home} out of range for {} nodes",
            self.num_nodes
        );
        let mut st = self.state.lock();
        st.slots_allocated += slots as u64;

        let open = st.open_pages[home.index()];
        if let Some(page) = open.page {
            if slots <= SLOTS_PER_PAGE - open.next_slot {
                // Fits in the open page.
                let addr = GlobalAddr(page.0 * SLOTS_PER_PAGE as u64 + open.next_slot as u64);
                st.open_pages[home.index()].next_slot += slots;
                return addr;
            }
        }

        // Start on fresh pages.
        let first_page = self.push_pages(slots, home);
        let pages_needed = slots.div_ceil(SLOTS_PER_PAGE);
        let used_in_last = slots - (pages_needed - 1) * SLOTS_PER_PAGE;
        st.open_pages[home.index()] = if used_in_last < SLOTS_PER_PAGE {
            OpenPage {
                page: Some(PageId(first_page + pages_needed as u64 - 1)),
                next_slot: used_in_last,
            }
        } else {
            OpenPage {
                page: None,
                next_slot: 0,
            }
        };
        GlobalAddr(first_page * SLOTS_PER_PAGE as u64)
    }

    /// Allocate `slots` slots on a fresh, exclusively owned page run (no
    /// packing with other objects), homed on `home`.  Used for data whose
    /// false-sharing behaviour should be controlled explicitly.
    pub fn alloc_page_aligned(&self, slots: usize, home: NodeId) -> GlobalAddr {
        assert!(slots > 0, "cannot allocate zero slots");
        assert!(home.index() < self.num_nodes, "home out of range");
        let mut st = self.state.lock();
        st.slots_allocated += slots as u64;
        let first_page = self.push_pages(slots, home);
        // Page-aligned allocations never leave an open page behind: the
        // remainder of the last page stays unused to avoid false sharing.
        GlobalAddr(first_page * SLOTS_PER_PAGE as u64)
    }

    /// Append the fresh pages covering `slots` slots, all homed on `home`,
    /// and return the first one's id.  Callers hold the state lock, which
    /// keeps the page ids of concurrent allocations apart.
    fn push_pages(&self, slots: usize, home: NodeId) -> u64 {
        let first_page = self.homes.len();
        self.homes
            .extend_to(first_page + slots.div_ceil(SLOTS_PER_PAGE) - 1, |_| home);
        first_page as u64
    }

    /// Home node of a page (lock-free).
    ///
    /// # Panics
    /// Panics if the page has not been allocated.
    #[inline]
    pub fn home_of(&self, page: PageId) -> NodeId {
        *self
            .homes
            .get(page.index())
            .unwrap_or_else(|| panic!("page {page:?} was never allocated"))
    }

    /// Home node of the page containing `addr`.
    pub fn home_of_addr(&self, addr: GlobalAddr) -> NodeId {
        self.home_of(addr.page())
    }

    /// Number of pages allocated so far (including the reserved page 0).
    pub fn num_pages(&self) -> usize {
        self.homes.len()
    }

    /// Total slots handed out so far.
    pub fn slots_allocated(&self) -> u64 {
        self.state.lock().slots_allocated
    }

    /// Snapshot of every page's home node, indexed by page id.
    pub fn page_homes(&self) -> Vec<NodeId> {
        self.homes.iter().map(|(_, &home)| home).collect()
    }
}

impl std::fmt::Debug for IsoAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IsoAllocator")
            .field("num_nodes", &self.num_nodes)
            .field("num_pages", &self.num_pages())
            .field("slots_allocated", &self.slots_allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_page_and_slot_decomposition() {
        let a = GlobalAddr(SLOTS_PER_PAGE as u64 * 3 + 17);
        assert_eq!(a.page(), PageId(3));
        assert_eq!(a.slot(), 17);
        assert_eq!(a.offset(5).slot(), 22);
        assert!(GlobalAddr::NULL.is_null());
        assert!(!a.is_null());
        assert_eq!(PageId(3).index(), 3);
    }

    #[test]
    fn small_allocations_pack_into_one_page() {
        let alloc = IsoAllocator::new(2);
        let a = alloc.alloc(4, NodeId(0));
        let b = alloc.alloc(4, NodeId(0));
        assert_eq!(a.page(), b.page());
        assert_eq!(b.0, a.0 + 4);
        assert_eq!(alloc.home_of(a.page()), NodeId(0));
        // A different home packs onto a different page.
        let c = alloc.alloc(4, NodeId(1));
        assert_ne!(c.page(), a.page());
        assert_eq!(alloc.home_of(c.page()), NodeId(1));
    }

    #[test]
    fn large_allocation_spans_contiguous_pages() {
        let alloc = IsoAllocator::new(1);
        let slots = SLOTS_PER_PAGE * 2 + 10;
        let a = alloc.alloc(slots, NodeId(0));
        assert_eq!(a.slot(), 0, "large allocations start page-aligned");
        let last = a.offset(slots as u64 - 1);
        assert_eq!(last.page().0, a.page().0 + 2);
        for p in a.page().0..=last.page().0 {
            assert_eq!(alloc.home_of(PageId(p)), NodeId(0));
        }
        // The tail of the last page is reusable by later small allocations.
        let b = alloc.alloc(4, NodeId(0));
        assert_eq!(b.page(), last.page());
    }

    #[test]
    fn exact_page_sized_allocation_does_not_leave_open_page() {
        let alloc = IsoAllocator::new(1);
        let a = alloc.alloc(SLOTS_PER_PAGE, NodeId(0));
        assert_eq!(a.slot(), 0);
        let b = alloc.alloc(1, NodeId(0));
        assert_eq!(b.page().0, a.page().0 + 1);
    }

    #[test]
    fn page_aligned_allocation_is_never_shared() {
        let alloc = IsoAllocator::new(1);
        let a = alloc.alloc_page_aligned(10, NodeId(0));
        let b = alloc.alloc(4, NodeId(0));
        let c = alloc.alloc_page_aligned(SLOTS_PER_PAGE + 1, NodeId(0));
        assert_eq!(a.slot(), 0);
        assert_ne!(b.page(), a.page());
        assert_eq!(c.slot(), 0);
        assert_ne!(c.page(), a.page());
        assert_ne!(c.page(), b.page());
    }

    #[test]
    fn null_slot_is_never_handed_out() {
        let alloc = IsoAllocator::new(3);
        for i in 0..100 {
            let home = NodeId(i % 3);
            let a = alloc.alloc(3, home);
            assert!(!a.is_null());
        }
    }

    #[test]
    fn slots_allocated_accumulates() {
        let alloc = IsoAllocator::new(1);
        let before = alloc.slots_allocated();
        alloc.alloc(10, NodeId(0));
        alloc.alloc(20, NodeId(0));
        assert_eq!(alloc.slots_allocated(), before + 30);
        assert!(alloc.num_pages() >= 1);
        assert_eq!(alloc.page_homes().len(), alloc.num_pages());
    }

    #[test]
    #[should_panic(expected = "zero slots")]
    fn zero_slot_allocation_panics() {
        IsoAllocator::new(1).alloc(0, NodeId(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_home_panics() {
        IsoAllocator::new(1).alloc(1, NodeId(5));
    }

    #[test]
    #[should_panic(expected = "never allocated")]
    fn home_of_unallocated_page_panics() {
        IsoAllocator::new(1).home_of(PageId(999));
    }

    #[test]
    fn concurrent_allocations_never_overlap() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let alloc = Arc::new(IsoAllocator::new(4));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let alloc = Arc::clone(&alloc);
                std::thread::spawn(move || {
                    let mut ranges = Vec::new();
                    for i in 0..200 {
                        let slots = 1 + (i % 7);
                        let a = alloc.alloc(slots, NodeId(t));
                        ranges.push((a.0, slots as u64));
                    }
                    ranges
                })
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for (start, len) in h.join().unwrap() {
                for s in start..start + len {
                    assert!(seen.insert(s), "slot {s} allocated twice");
                }
            }
        }
    }
}
