//! Bounded admission queue and per-request response tickets.
//!
//! The queue is the server's only buffer: a `VecDeque` under one mutex,
//! capped at [`crate::ServerConfig::queue_cap`]. Admission never blocks —
//! a full queue answers [`ServeError::Busy`] immediately — so overload
//! turns into fast rejections, not unbounded memory growth or latency
//! collapse. The scheduler is the only consumer; it drains whole
//! snapshots at a time (see `server.rs`) so co-queued requests can
//! coalesce.
//!
//! Every admitted request carries a [`Ticket`]: a one-shot slot the
//! scheduler fulfills exactly once. Tickets survive scheduler panics —
//! the panic barrier in the scheduler answers every outstanding ticket
//! before the thread exits — so [`Ticket::wait`] never hangs forever.

use crate::request::{GemmRequest, ServeError, ServeOutput};
use egemm::telemetry::metrics::Gauge;
use egemm::EmulationScheme;
use egemm_matrix::GemmShape;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Lock a mutex, recovering the guard if a previous holder panicked —
/// the same policy as the engine's pool and cache (every guarded update
/// here is transactional, so the data stays consistent).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Grouping key of the bucketing scheduler: requests agreeing on all
/// fields are dispatched together (same shape and scheme are what
/// `gemm_batched` requires; the B fingerprint makes the shared-operand
/// split/pack hit the cache once per bucket). `with_c` and `SplitK`
/// requests get singleton buckets — their entry points take one problem
/// at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BucketKey {
    pub shape: GemmShape,
    pub scheme: EmulationScheme,
    /// Content fingerprint of the B operand ([`egemm::content_fingerprint`]).
    pub b_fp: (u64, u64),
    /// Kind discriminant: 0 = batchable gemm, 1 = gemm-with-C,
    /// 2 = split-K (slice count folded in so identical jobs still share
    /// a bucket slot in dispatch order).
    pub kind: u64,
}

/// One admitted request waiting for dispatch.
pub(crate) struct Pending {
    pub req: GemmRequest,
    pub key: BucketKey,
    pub admitted: Instant,
    /// Absolute deadline (admission + requested duration).
    pub deadline: Option<Instant>,
    pub ticket: Arc<TicketInner>,
    /// Process-unique id assigned at admission (returned to the client
    /// and threaded into engine trace spans).
    pub request_id: u64,
    /// Admission timestamp on the engine trace clock
    /// ([`egemm::telemetry::now_ns`]) so request spans and engine spans
    /// share one timeline in the Chrome-trace export.
    pub admitted_ns: u64,
    /// `Some` when this pending is the *primary* for its content key in
    /// the in-flight dedupe table: its resolution must clear the table
    /// entry, fan the outcome out to every attached follower, and (on
    /// success) feed the memoized result cache. `None` for requests that
    /// bypassed the table (dedupe off, or a same-key primary with a
    /// deadline already existed).
    pub result_key: Option<crate::dedupe::ResultKey>,
}

/// Shared slot a response is delivered into, exactly once.
pub(crate) struct TicketInner {
    slot: Mutex<TicketSlot>,
    ready: Condvar,
}

#[derive(Default)]
struct TicketSlot {
    result: Option<Result<ServeOutput, ServeError>>,
    /// Invoked (once, then dropped) when the result lands — the
    /// event-loop frontend's completion hook. Runs on the fulfilling
    /// thread *outside* the slot lock.
    waker: Option<Box<dyn FnOnce() + Send>>,
}

impl TicketInner {
    pub(crate) fn new() -> Arc<TicketInner> {
        Arc::new(TicketInner {
            slot: Mutex::new(TicketSlot::default()),
            ready: Condvar::new(),
        })
    }

    /// Deliver the response. A second delivery is a logic error upstream
    /// and is dropped (first answer wins) rather than panicking a
    /// scheduler that is busy draining.
    pub(crate) fn fulfill(&self, result: Result<ServeOutput, ServeError>) {
        let waker = {
            let mut slot = lock_unpoisoned(&self.slot);
            if slot.result.is_some() {
                return;
            }
            slot.result = Some(result);
            self.ready.notify_all();
            slot.waker.take()
        };
        if let Some(w) = waker {
            w();
        }
    }
}

/// Handle to one in-flight request. Obtained from [`crate::Client::submit`].
pub struct Ticket {
    pub(crate) inner: Arc<TicketInner>,
}

impl Ticket {
    /// Block until the server answers. The server answers every admitted
    /// request exactly once — on dispatch, on deadline expiry, on engine
    /// failure, or during shutdown drain — so this always returns.
    pub fn wait(self) -> Result<ServeOutput, ServeError> {
        let mut slot = lock_unpoisoned(&self.inner.slot);
        loop {
            if let Some(result) = slot.result.take() {
                return result;
            }
            slot = self
                .inner
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking poll: `Some` once the response has been delivered.
    pub fn try_wait(&self) -> Option<Result<ServeOutput, ServeError>> {
        lock_unpoisoned(&self.inner.slot).result.take()
    }

    /// Register a completion hook. If the result already landed, `f`
    /// runs immediately on the calling thread; otherwise it runs on the
    /// fulfilling thread (scheduler or a memo-hit submitter) the moment
    /// the response is delivered. The hook must be cheap and non-blocking
    /// — the event-loop frontend uses it to push a completion token and
    /// poke its eventfd, then collects the result with [`Ticket::try_wait`].
    pub fn on_ready(&self, f: impl FnOnce() + Send + 'static) {
        let fire_now = {
            let mut slot = lock_unpoisoned(&self.inner.slot);
            if slot.result.is_some() {
                true
            } else {
                slot.waker = Some(Box::new(f));
                return;
            }
        };
        debug_assert!(fire_now);
        f();
    }
}

/// Queue state shared between clients (producers) and the scheduler
/// (sole consumer).
pub(crate) struct QueueState {
    pub queue: VecDeque<Pending>,
    /// False once shutdown begins: new submissions answer `Shutdown`.
    pub accepting: bool,
    /// True once shutdown begins: the scheduler drains and exits.
    pub shutdown: bool,
}

pub(crate) struct AdmissionQueue {
    pub state: Mutex<QueueState>,
    /// Signals the scheduler: work arrived or shutdown began.
    pub work: Condvar,
    pub cap: usize,
    /// The server's queue-depth gauge, set under the state lock on
    /// every push and drain.
    pub depth: Arc<Gauge>,
}

impl AdmissionQueue {
    pub(crate) fn new(cap: usize, depth: Arc<Gauge>) -> AdmissionQueue {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                accepting: true,
                shutdown: false,
            }),
            work: Condvar::new(),
            cap: cap.max(1),
            depth,
        }
    }

    /// Admit or reject immediately; never blocks the submitter.
    pub(crate) fn push(&self, pending: Pending) -> Result<(), ServeError> {
        let mut st = lock_unpoisoned(&self.state);
        if !st.accepting {
            return Err(ServeError::Shutdown);
        }
        if st.queue.len() >= self.cap {
            return Err(ServeError::Busy {
                queued: st.queue.len(),
            });
        }
        st.queue.push_back(pending);
        self.depth.set(st.queue.len() as i64);
        self.work.notify_one();
        Ok(())
    }

    /// Take everything queued and zero the depth gauge; the caller
    /// holds the state lock.
    pub(crate) fn drain_all(&self, st: &mut QueueState) -> Vec<Pending> {
        self.depth.set(0);
        st.queue.drain(..).collect()
    }

    /// Begin shutdown: stop admitting, wake the scheduler for its final
    /// drain.
    pub(crate) fn close(&self) {
        let mut st = lock_unpoisoned(&self.state);
        st.accepting = false;
        st.shutdown = true;
        self.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm_matrix::Matrix;

    fn pending() -> Pending {
        let req = GemmRequest::gemm(Matrix::zeros(2, 2), Matrix::zeros(2, 2));
        Pending {
            key: BucketKey {
                shape: req.shape(),
                scheme: req.scheme,
                b_fp: (0, 0),
                kind: 0,
            },
            admitted: Instant::now(),
            deadline: None,
            ticket: TicketInner::new(),
            request_id: 0,
            admitted_ns: 0,
            result_key: None,
            req,
        }
    }

    #[test]
    fn queue_rejects_when_full_and_after_close() {
        let q = AdmissionQueue::new(2, Arc::default());
        assert!(q.push(pending()).is_ok());
        assert!(q.push(pending()).is_ok());
        assert_eq!(q.push(pending()), Err(ServeError::Busy { queued: 2 }));
        q.close();
        assert_eq!(q.push(pending()), Err(ServeError::Shutdown));
    }

    #[test]
    fn depth_gauge_follows_push_and_drain() {
        let q = AdmissionQueue::new(4, Arc::default());
        assert!(q.push(pending()).is_ok());
        assert!(q.push(pending()).is_ok());
        assert_eq!(q.depth.get(), 2);
        assert_eq!(q.drain_all(&mut lock_unpoisoned(&q.state)).len(), 2);
        assert_eq!(q.depth.get(), 0);
    }

    #[test]
    fn ticket_single_delivery_first_wins() {
        let inner = TicketInner::new();
        inner.fulfill(Err(ServeError::Shutdown));
        inner.fulfill(Err(ServeError::Busy { queued: 9 }));
        let t = Ticket {
            inner: inner.clone(),
        };
        assert_eq!(t.wait().unwrap_err(), ServeError::Shutdown);
    }

    #[test]
    fn try_wait_polls_without_blocking() {
        let inner = TicketInner::new();
        let t = Ticket {
            inner: inner.clone(),
        };
        assert!(t.try_wait().is_none());
        inner.fulfill(Err(ServeError::Shutdown));
        assert!(t.try_wait().is_some());
    }
}
