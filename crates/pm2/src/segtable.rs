//! An append-only table whose entries never move.
//!
//! [`SegmentTable`] keeps its entries in segments of doubling size (512,
//! 1024, 2048, … entries) that are allocated on first use and never
//! reallocated.  Appending therefore never relocates an existing entry, so
//! a lookup hands out a plain `&T` that stays valid for the table's
//! lifetime, and it takes no lock: index arithmetic plus three acquire loads
//! (the length, the segment and the entry).  Appends are serialised by a
//! mutex that readers never touch.
//!
//! An entry becomes visible only once the length counts it.  An append
//! writes its entries first and publishes the new length last, so a reader
//! that races an append sees none of it: every entry [`SegmentTable::get`]
//! hands out is also visited by [`SegmentTable::iter`].
//!
//! Publication goes through `OnceLock` only, so the table needs no
//! `unsafe`.  The DSM layer keeps each node's page frames in one; the
//! iso-address allocator keeps the page homes in another.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

/// Entries in the first segment; segment `k` holds `FIRST_SEGMENT << k`.
const FIRST_SEGMENT: usize = 512;

/// Number of segments: room for `FIRST_SEGMENT * (2^SEGMENTS - 1)` entries,
/// far beyond any address space the simulator allocates.
const SEGMENTS: usize = 40;

/// An append-only, lock-free-read table of `T` (see the module docs).
pub struct SegmentTable<T> {
    segments: [OnceLock<Box<[OnceLock<T>]>>; SEGMENTS],
    /// Number of entries; published after the entries below it are written.
    len: AtomicUsize,
    /// Serialises appends.
    grow: Mutex<()>,
}

/// `(segment, offset)` of entry `index`.
#[inline]
fn locate(index: usize) -> (usize, usize) {
    let q = index / FIRST_SEGMENT + 1;
    let segment = (usize::BITS - 1 - q.leading_zeros()) as usize;
    // Segments below `segment` hold FIRST_SEGMENT * (2^segment - 1) <= index
    // entries (q >= 2^segment), so neither operation can overflow.
    (segment, index - FIRST_SEGMENT * ((1 << segment) - 1))
}

impl<T> SegmentTable<T> {
    /// An empty table (no segment is allocated until the first append).
    pub fn new() -> Self {
        SegmentTable {
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            grow: Mutex::new(()),
        }
    }

    /// Number of entries appended so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True if nothing has been appended yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `index`, if the length counts it.  Lock-free; the reference
    /// stays valid (and the entry unchanged) for the table's lifetime.
    ///
    /// An entry that an in-flight append has written but not yet counted
    /// is reported missing, so no caller can use an entry that
    /// [`SegmentTable::iter`] would skip.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len() {
            return None;
        }
        let (segment, offset) = locate(index);
        self.segments.get(segment)?.get()?.get(offset)?.get()
    }

    /// Append entries until entry `last` exists, creating each missing one
    /// with `make(index)` in index order; does nothing if `last` exists
    /// already.  The new length is published only after every new entry
    /// is written, and [`SegmentTable::get`] reports nothing past it, so
    /// readers see the whole append at once or none of it.
    ///
    /// # Panics
    /// Panics if `last` exceeds the table's (astronomical) capacity.
    pub fn extend_to(&self, last: usize, mut make: impl FnMut(usize) -> T) {
        let _guard = self.grow.lock();
        let mut len = self.len.load(Ordering::Relaxed);
        while len <= last {
            let (segment, offset) = locate(len);
            let entries = self
                .segments
                .get(segment)
                .expect("segment table capacity exceeded")
                .get_or_init(|| {
                    (0..FIRST_SEGMENT << segment)
                        .map(|_| OnceLock::new())
                        .collect()
                });
            // Appends are serialised by `grow`, so the entry is still empty.
            let fresh = entries[offset].set(make(len)).is_ok();
            debug_assert!(fresh, "segment table entry {len} written twice");
            len += 1;
        }
        self.len.store(len, Ordering::Release);
    }

    /// Every entry below [`SegmentTable::len`], with its index.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        (0..self.len()).map(move |i| (i, self.get(i).expect("entries below len are written")))
    }
}

impl<T> Default for SegmentTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for SegmentTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentTable")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_double_from_512() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(511), (0, 511));
        assert_eq!(locate(512), (1, 0));
        assert_eq!(locate(1535), (1, 1023));
        assert_eq!(locate(1536), (2, 0));
        assert_eq!(locate(3583), (2, 2047));
        assert_eq!(locate(3584), (3, 0));
        // Far-out indices land past the last segment instead of wrapping.
        assert!(locate(usize::MAX).0 >= SEGMENTS);
    }

    #[test]
    fn appends_in_order_and_never_moves_entries() {
        let table = SegmentTable::new();
        assert!(table.is_empty());
        assert!(table.get(0).is_none());
        table.extend_to(0, |i| i * 10);
        let first: *const usize = table.get(0).unwrap();
        table.extend_to(5000, |i| i * 10);
        assert_eq!(table.len(), 5001);
        assert!(std::ptr::eq(first, table.get(0).unwrap()));
        for i in [1, 511, 512, 1535, 1536, 5000] {
            assert_eq!(table.get(i), Some(&(i * 10)));
        }
        assert!(table.get(5001).is_none());
        assert!(table.get(usize::MAX).is_none());
        // Extending to an existing index is a no-op.
        table.extend_to(3, |_| unreachable!());
        assert_eq!(table.iter().count(), 5001);
    }

    #[test]
    fn entries_stay_hidden_until_the_append_publishes_them() {
        use std::sync::Barrier;

        let table = SegmentTable::new();
        table.extend_to(1, |i| i);
        // Entry 700 sits in the second segment, so the append below also
        // allocates a segment before it stalls.
        let stalled = Barrier::new(2);
        let resume = Barrier::new(2);
        // Observe the table mid-append; assert only after letting the
        // append finish, so a failure cannot leave it stalled.
        let (len, visible, seen) = std::thread::scope(|s| {
            s.spawn(|| {
                table.extend_to(1000, |i| {
                    if i == 700 {
                        stalled.wait();
                        resume.wait();
                    }
                    i
                })
            });
            stalled.wait();
            let len = table.len();
            let visible: Vec<usize> = [1, 2, 511, 512, 699]
                .into_iter()
                .filter(|&i| table.get(i).is_some())
                .collect();
            let seen: Vec<usize> = table.iter().map(|(i, _)| i).collect();
            resume.wait();
            (len, visible, seen)
        });
        // Entries 2..700 were written but not yet counted: a reader must
        // not get them, or it could use an entry `iter` skips.
        assert_eq!(len, 2);
        assert_eq!(visible, [1], "entries visible before publication");
        assert_eq!(seen, [0, 1]);
        assert_eq!(table.len(), 1001);
        assert_eq!(table.get(699), Some(&699));
        assert_eq!(table.iter().count(), 1001);
    }
}
