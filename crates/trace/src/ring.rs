//! The bounded, per-thread-sharded record ring under both span tracing
//! and the `snn-log` flight recorder.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One recording thread's buffer: only its owner pushes, only a drain
/// takes, so the mutex is uncontended on the hot path.
#[derive(Debug)]
struct ThreadShard<T> {
    track: u32,
    buf: Mutex<Vec<T>>,
}

thread_local! {
    /// This thread's shard per ring id, type-erased so rings of every
    /// record type share one table (pruned when rings die).
    static SHARDS: RefCell<Vec<(u64, Arc<dyn Any + Send + Sync>)>> = const { RefCell::new(Vec::new()) };
}

/// Process-wide ring id source (so thread-local shard entries can tell
/// rings apart).
static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(1);

/// Locks `mutex`, recovering the data if a panicking holder poisoned it:
/// a record buffer stays usable after a panic elsewhere in the process.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded ring of records fed through per-thread shards.
///
/// Each recording thread buffers into its own shard (registered on first
/// use and numbered by a track) and flushes it into the ring once it
/// holds `flush_threshold` records. The ring keeps the newest `capacity`
/// records, evicting — and counting in [`dropped`](Self::dropped) — the
/// oldest. [`query`](Self::query) drains every shard first, so a record
/// pushed before the query is always visible to it.
///
/// ```
/// let ring = snn_trace::ShardedRing::new(2, 64);
/// (0..3).for_each(|i| ring.push(|_track| i));
/// assert_eq!(ring.query(|r| r.iter().copied().collect::<Vec<_>>()), [1, 2]);
/// assert_eq!(ring.dropped(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedRing<T> {
    id: u64,
    capacity: usize,
    flush_threshold: usize,
    shards: Mutex<Vec<Arc<ThreadShard<T>>>>,
    ring: Mutex<VecDeque<T>>,
    dropped: AtomicU64,
}

impl<T: Send + 'static> ShardedRing<T> {
    /// An empty ring retaining at most `capacity` records, whose shards
    /// flush eagerly at `flush_threshold` records.
    pub fn new(capacity: usize, flush_threshold: usize) -> Self {
        Self {
            id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
            capacity,
            flush_threshold,
            shards: Mutex::new(Vec::new()),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// This ring's process-unique id (never 0).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted from the full ring since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Buffers the record `make` builds from the calling thread's track on
    /// that thread's shard, flushing the shard past the threshold.
    pub fn push(&self, make: impl FnOnce(u32) -> T) {
        let shard = self.shard();
        let record = make(shard.track);
        let overflow = {
            let mut buf = lock(&shard.buf);
            buf.push(record);
            (buf.len() >= self.flush_threshold).then(|| std::mem::take(&mut *buf))
        };
        if let Some(records) = overflow {
            self.flush_to_ring(&mut lock(&self.ring), records);
        }
    }

    /// This thread's shard, registering one (and its track) on first use.
    fn shard(&self) -> Arc<ThreadShard<T>> {
        SHARDS.with(|cell| {
            let mut entries = cell.borrow_mut();
            let registered = entries.iter().find(|(id, _)| *id == self.id);
            if let Some(shard) = registered.and_then(|(_, s)| Arc::clone(s).downcast().ok()) {
                return shard;
            }
            let mut shards = lock(&self.shards);
            let shard = Arc::new(ThreadShard {
                track: shards.len() as u32,
                buf: Mutex::default(),
            });
            shards.push(Arc::clone(&shard));
            drop(shards);
            // Entries whose ring died hold the only other Arc; prune them
            // so long-lived threads stay bounded across rings.
            entries.retain(|(_, s)| Arc::strong_count(s) > 1);
            entries.push((self.id, Arc::clone(&shard) as Arc<dyn Any + Send + Sync>));
            shard
        })
    }

    /// Moves records into the ring, evicting (and counting) the oldest on
    /// overflow.
    fn flush_to_ring(&self, ring: &mut VecDeque<T>, records: Vec<T>) {
        for record in records {
            if ring.len() >= self.capacity {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(record);
        }
    }

    /// Drains every thread's shard into the ring and hands the ring back
    /// still locked. The ring lock is held across the whole drain: were it
    /// taken per shard, a second query could find a shard already emptied
    /// by the first while its records were still on their way to the
    /// ring, and miss them. (A push never holds a shard and the ring at
    /// once, so shard list → ring → shard is the only nesting.)
    fn drain_shards(&self) -> MutexGuard<'_, VecDeque<T>> {
        let shards = lock(&self.shards);
        let mut ring = lock(&self.ring);
        for shard in shards.iter() {
            let taken = std::mem::take(&mut *lock(&shard.buf));
            self.flush_to_ring(&mut ring, taken);
        }
        ring
    }

    /// Runs `read` on the retained records, oldest first, after draining
    /// every shard — so a record pushed before the query is always seen.
    pub fn query<R>(&self, read: impl FnOnce(&VecDeque<T>) -> R) -> R {
        read(&self.drain_shards())
    }

    /// Records currently retained (drains the shards first, so the
    /// figure reflects everything pushed so far). Occupancy is all the
    /// collectors report; nothing asks whether a ring is empty.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.drain_shards().len()
    }
}
