//! Per-thread lock-free trace rings.
//!
//! Each recording thread owns one single-producer ring of fixed
//! capacity. Recording is wait-free for the producer: claim the next
//! slot from a monotonically increasing head, store the four event
//! words, publish the head with Release. A full ring overwrites its
//! oldest events — the producer never blocks, never allocates, and
//! never observes the drainer.
//!
//! Slots are four `AtomicU64`s rather than an `UnsafeCell<TraceEvent>`:
//! a drain racing the producer may then read a *torn event* (mixed
//! words from two generations) but never touches uninitialised or
//! concurrently-written plain memory, so the race is benign by
//! construction instead of undefined. Torn events are possible only
//! for slots the producer lapped mid-drain, which the drain already
//! classifies as dropped.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use super::Phase;

/// Events retained per thread between drains. At one event per
/// macro-tile plus a handful per call, this covers thousands of tiles;
/// older events beyond it are counted as dropped, not blocked on.
pub const RING_CAPACITY: usize = 4096;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Pipeline stage.
    pub phase: Phase,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Phase-specific payload (bytes, tile index, hit flag, ...).
    pub detail: u64,
}

/// Words per slot: phase, start, duration, detail.
const SLOT_WORDS: usize = 4;

pub(super) struct TraceRing {
    /// Registration index; stable for the thread's lifetime.
    worker: u32,
    /// Thread name at registration, for trace metadata.
    name: String,
    /// Total events ever published (not wrapped). Producer-owned.
    head: AtomicU64,
    /// Total events ever drained. Drainer-owned.
    tail: AtomicU64,
    slots: Box<[AtomicU64]>,
}

impl TraceRing {
    fn new(worker: u32, name: String) -> TraceRing {
        let mut slots = Vec::with_capacity(RING_CAPACITY * SLOT_WORDS);
        slots.resize_with(RING_CAPACITY * SLOT_WORDS, || AtomicU64::new(0));
        TraceRing {
            worker,
            name,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Producer side: overwrite the oldest slot when full, then publish.
    fn push(&self, phase: Phase, start_ns: u64, dur_ns: u64, detail: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let base = (h as usize % RING_CAPACITY) * SLOT_WORDS;
        self.slots[base].store(phase as u64, Ordering::Relaxed);
        self.slots[base + 1].store(start_ns, Ordering::Relaxed);
        self.slots[base + 2].store(dur_ns, Ordering::Relaxed);
        self.slots[base + 3].store(detail, Ordering::Relaxed);
        // Release orders the slot stores before the new head: a drainer
        // that Acquires this head sees fully written events below it.
        self.head.store(h + 1, Ordering::Release);
    }

    /// Drainer side: copy out everything since the last drain that the
    /// ring still holds, count the rest as dropped, advance the tail.
    fn drain(&self) -> Lane {
        let h = self.head.load(Ordering::Acquire);
        let t = self.tail.load(Ordering::Relaxed);
        let oldest = h.saturating_sub(RING_CAPACITY as u64);
        let dropped = oldest.saturating_sub(t);
        let lo = t.max(oldest);
        let mut events = Vec::with_capacity((h - lo) as usize);
        for i in lo..h {
            let base = (i as usize % RING_CAPACITY) * SLOT_WORDS;
            events.push(TraceEvent {
                phase: Phase::from_u8(self.slots[base].load(Ordering::Relaxed) as u8),
                start_ns: self.slots[base + 1].load(Ordering::Relaxed),
                dur_ns: self.slots[base + 2].load(Ordering::Relaxed),
                detail: self.slots[base + 3].load(Ordering::Relaxed),
            });
        }
        self.tail.store(h, Ordering::Relaxed);
        Lane {
            worker: self.worker,
            name: self.name.clone(),
            dropped,
            events,
        }
    }
}

/// One thread's drained events.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Stable worker id (ring registration index) — the Chrome `tid`.
    pub worker: u32,
    /// Thread name at registration (e.g. `egemm-worker-2#1`).
    pub name: String,
    /// Events lost to ring overflow since the previous drain.
    pub dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// All rings ever registered, in registration order. Rings outlive
/// their threads (Arc) so late drains still see final events. Locked
/// only at registration (once per thread) and drain — never on the
/// recording path.
fn registry() -> &'static Mutex<Vec<Arc<TraceRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<TraceRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: OnceCell<Arc<TraceRing>> = const { OnceCell::new() };
}

fn local_ring<R>(f: impl FnOnce(&TraceRing) -> R) -> R {
    LOCAL_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let mut reg = registry()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let worker = reg.len() as u32;
            let base = std::thread::current();
            let name = format!("{}#{worker}", base.name().unwrap_or("thread"));
            let ring = Arc::new(TraceRing::new(worker, name));
            reg.push(ring.clone());
            ring
        });
        f(ring)
    })
}

pub(super) fn record(phase: Phase, start_ns: u64, dur_ns: u64, detail: u64) {
    local_ring(|r| r.push(phase, start_ns, dur_ns, detail));
}

pub(super) fn local_worker_id() -> u32 {
    local_ring(|r| r.worker)
}

pub(super) fn drain_all() -> Vec<Lane> {
    let reg = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    reg.iter().map(|r| r.drain()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_drain_roundtrips() {
        let ring = TraceRing::new(7, "t".into());
        ring.push(Phase::Tile, 10, 5, 42);
        ring.push(Phase::FusedSplitPack, 20, 3, 8);
        let lane = ring.drain();
        assert_eq!(lane.worker, 7);
        assert_eq!(lane.dropped, 0);
        assert_eq!(
            lane.events,
            vec![
                TraceEvent {
                    phase: Phase::Tile,
                    start_ns: 10,
                    dur_ns: 5,
                    detail: 42
                },
                TraceEvent {
                    phase: Phase::FusedSplitPack,
                    start_ns: 20,
                    dur_ns: 3,
                    detail: 8
                },
            ]
        );
        // A second drain finds nothing new.
        let lane = ring.drain();
        assert!(lane.events.is_empty());
        assert_eq!(lane.dropped, 0);
    }

    #[test]
    fn overflow_drops_oldest_without_growing() {
        let ring = TraceRing::new(0, "t".into());
        let n = RING_CAPACITY as u64 + 100;
        for i in 0..n {
            ring.push(Phase::Tile, i, 1, i);
        }
        let lane = ring.drain();
        assert_eq!(lane.dropped, 100, "oldest 100 events overwritten");
        assert_eq!(lane.events.len(), RING_CAPACITY);
        assert_eq!(
            lane.events[0].start_ns, 100,
            "survivors start after the drop"
        );
        assert_eq!(lane.events.last().unwrap().start_ns, n - 1);
    }
}
