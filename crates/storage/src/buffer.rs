//! The buffer pool: a page-budgeted cache of faulted-in sealed blocks with
//! clock (second-chance) replacement.
//!
//! Frames are whole block extents, weighted by the number of
//! [`crate::page::PAGE_SIZE`] pages they span, so the configured capacity
//! bounds *bytes held*, not block count.  The pool is shared by every table
//! of one [`crate::recovery::PagedStore`]; keys are
//! `(table_id, block_no)`.
//!
//! Eviction is the classic clock: every frame carries a reference bit, set
//! on each hit; the clock hand sweeps the ring, clearing set bits and
//! evicting the first frame found clear.  Blocks are immutable (sealed), so
//! there are no dirty frames and eviction never writes — the WAL and the
//! seal-time extent appends are the only writers of the data files.
//!
//! An extent larger than the whole pool is still admitted (the scan needs
//! it); it simply becomes the next eviction victim.  Evicting a block that
//! a scan still holds an `Arc` to is safe — the scan keeps its clone alive,
//! the pool just forgets it.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::column::SealedBlock;

/// The cache key of one block frame: `(table_id, block_no)`.
pub type FrameKey = (u32, u64);

/// A page-budgeted block cache with clock replacement.
#[derive(Debug)]
pub struct BufferPool {
    capacity_pages: u64,
    inner: Mutex<PoolInner>,
}

#[derive(Debug, Default)]
struct PoolInner {
    frames: HashMap<FrameKey, Frame>,
    /// The clock ring (FIFO of keys; the hand is the front).
    ring: VecDeque<FrameKey>,
    used_pages: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Frame {
    block: Arc<SealedBlock>,
    pages: u64,
    referenced: bool,
}

impl BufferPool {
    /// A pool holding at most `capacity_pages` pages (minimum 1).
    pub fn new(capacity_pages: u64) -> Self {
        BufferPool {
            capacity_pages: capacity_pages.max(1),
            inner: Mutex::new(PoolInner::default()),
        }
    }

    /// The configured capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Pages currently held.
    pub fn used_pages(&self) -> u64 {
        self.inner.lock().used_pages
    }

    /// Resident frame count.
    pub fn len(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Whether the pool holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses, evictions)` since the pool was created.
    pub fn stats(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses, inner.evictions)
    }

    /// Looks `key` up, setting its reference bit on a hit.
    pub fn get(&self, key: FrameKey) -> Option<Arc<SealedBlock>> {
        let mut inner = self.inner.lock();
        match inner.frames.get_mut(&key) {
            Some(frame) => {
                frame.referenced = true;
                let block = Arc::clone(&frame.block);
                inner.hits += 1;
                Some(block)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Admits `block` under `key`, clock-evicting frames until the pool
    /// fits the budget again.  The incoming block is always admitted, even
    /// when it alone exceeds the capacity (it is then the next victim).
    pub fn insert(&self, key: FrameKey, block: Arc<SealedBlock>, pages: u64) {
        let pages = pages.max(1);
        let mut inner = self.inner.lock();
        if let Some(old) = inner.frames.insert(
            key,
            Frame {
                block,
                pages,
                referenced: true,
            },
        ) {
            // Re-insert of a resident key: swap the frame in place, keep
            // its ring entry.
            inner.used_pages -= old.pages;
            inner.used_pages += pages;
        } else {
            inner.ring.push_back(key);
            inner.used_pages += pages;
        }
        // Sweep the clock until the budget holds; never evict the frame we
        // just admitted unless it is the only one left.
        while inner.used_pages > self.capacity_pages && inner.ring.len() > 1 {
            let Some(hand) = inner.ring.pop_front() else {
                break;
            };
            if hand == key {
                inner.ring.push_back(hand);
                continue;
            }
            // A ring entry without a frame is dropped from the ring.
            let Some(frame) = inner.frames.get_mut(&hand) else {
                continue;
            };
            if std::mem::take(&mut frame.referenced) {
                inner.ring.push_back(hand);
            } else if let Some(evicted) = inner.frames.remove(&hand) {
                inner.used_pages -= evicted.pages;
                inner.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::BlockData;

    fn block(rows: usize) -> Arc<SealedBlock> {
        Arc::new(SealedBlock::from_data(vec![BlockData::Int64(
            (0..rows as i64).collect(),
        )]))
    }

    #[test]
    fn hits_set_reference_bits_and_misses_count() {
        let pool = BufferPool::new(10);
        assert!(pool.get((1, 0)).is_none());
        pool.insert((1, 0), block(4), 2);
        assert_eq!(pool.get((1, 0)).unwrap().rows(), 4);
        assert_eq!(pool.stats(), (1, 1, 0));
        assert_eq!(pool.used_pages(), 2);
    }

    #[test]
    fn clock_gives_rereferenced_frames_a_second_chance() {
        // 2-page frames A, B, X fill a 6-page pool; admitting C sweeps one
        // clearing lap and evicts A (the first frame found clear), leaving
        // B and X with cleared bits.
        let pool = BufferPool::new(6);
        pool.insert((1, 0), block(1), 2); // A
        pool.insert((1, 1), block(1), 2); // B
        pool.insert((1, 2), block(1), 2); // X
        pool.insert((1, 3), block(1), 2); // C — forces the first eviction
        assert!(pool.get((1, 0)).is_none(), "A is the first victim");
        // Re-reference B.  At the next sweep the hand passes B (bit set:
        // cleared and re-queued) and evicts X (bit clear) — a FIFO replacer
        // would have evicted B, the older frame at the ring front.
        assert!(pool.get((1, 1)).is_some());
        pool.insert((1, 4), block(1), 2); // D — forces the second eviction
        assert!(pool.get((1, 2)).is_none(), "unreferenced X is evicted");
        assert!(pool.get((1, 1)).is_some(), "re-referenced B survives");
        assert!(pool.get((1, 3)).is_some());
        assert!(pool.get((1, 4)).is_some());
        assert!(pool.used_pages() <= 6);
        let (_, _, evictions) = pool.stats();
        assert_eq!(evictions, 2);
    }

    #[test]
    fn oversized_blocks_are_still_admitted() {
        let pool = BufferPool::new(2);
        pool.insert((1, 0), block(1), 100);
        assert!(pool.get((1, 0)).is_some());
        // The next admission evicts it.
        pool.insert((1, 1), block(1), 1);
        pool.insert((1, 2), block(1), 1);
        assert!(pool.get((1, 0)).is_none());
    }

    #[test]
    fn reinsert_of_resident_key_keeps_accounting_straight() {
        let pool = BufferPool::new(10);
        pool.insert((1, 0), block(1), 3);
        pool.insert((1, 0), block(2), 5);
        assert_eq!(pool.used_pages(), 5);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.get((1, 0)).unwrap().rows(), 2);
    }
}
