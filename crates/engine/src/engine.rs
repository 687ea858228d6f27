//! The serving engine: a bounded multi-producer request queue drained by
//! a worker pool, one request per kernel launch. [`OpRequest`] is the
//! table of served ops: each variant is checked at submit by its kernel's
//! request-shape rule and launched through its kernel's one entry point.
//!
//! The queue is priority-then-deadline ordered, admission sheds
//! infeasible or expired work with typed [`EngineError::Rejected`]
//! answers instead of only blocking, and the drain loop drops
//! already-expired requests without executing them. A worker pops the
//! queue head and serves it.
//!
//! A request costs its launch, not a thread hand-off: the engine holds
//! `workers` launch permits, shared by the workers and by submitting
//! threads, so at most [`EngineConfig::workers`] launches run at once. A
//! blocking [`Engine::submit`] that finds nobody waiting — no other
//! ticket outstanding, the queue empty, a permit free and no test hook
//! pending — serves its request on the calling thread, through the same
//! serve path a worker runs, and returns a ticket that is already
//! answered ([`EngineStats::served_inline`] counts these). Anything else
//! queues: an inline request never overtakes a queued one, and a client
//! with tickets in flight (or several clients at once) keeps the workers'
//! parallelism. [`Engine::try_submit`] always queues,
//! because it must not block.

use crate::op::{launch, OpOutput, OpRequest};
use crate::stats::{EngineStats, StatsInner};
use crate::submission::{Priority, RejectReason, Submission};
use sparsetir_ir::exec::Runtime;
use sparsetir_kernels::prelude::{bytes_copied_on_thread, SpmmConfig};
use sparsetir_kernels::tune::{
    measured_spmm_key, SparsityFingerprint, SpmmMeasuredEvaluator, TuneCache,
};
use sparsetir_smat::prelude::{Csr, Dense, GraphDelta};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default bound on the request queue (the backpressure knob).
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// How far the log2-degree histogram may drift (see
/// [`SparsityFingerprint::drift`]: L1 distance over row count — a single
/// moved row contributes 2) before [`Engine::apply_delta`] re-anchors the
/// adjacency's tuning identity and schedules a background retune. At or
/// below it the old anchor is kept: cached tune decisions and compiled
/// kernels keep serving unchanged. At `0.1`, five percent of rows changing
/// degree bin re-tunes; anything less keeps serving the existing decisions.
pub const DRIFT_THRESHOLD: f64 = 0.1;

/// Lock a mutex, recovering from poisoning: a panicking worker must not
/// wedge every subsequent submit/shutdown on the client threads. The
/// queue state stays structurally consistent across a worker unwind (a
/// popped job either completes or is answered with an error), so the
/// poison flag carries no information we act on.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Error answered to a serving client.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// Request shapes are incompatible with the adjacency.
    Shape(String),
    /// The engine shut down before (or while) answering.
    Shutdown,
    /// The admission controller or drain loop refused the submission;
    /// the reason says whether the queue was full, the deadline was
    /// infeasible, or the deadline had already passed.
    Rejected {
        /// Why the submission was refused.
        reason: RejectReason,
    },
    /// Kernel lowering/compilation/execution failed (including a worker
    /// panic, which the engine survives).
    Exec(String),
    /// A ticket was asked for a different op's output variant.
    Output(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Shape(msg) => write!(f, "engine shape error: {msg}"),
            EngineError::Shutdown => write!(f, "engine has shut down"),
            EngineError::Rejected { reason } => write!(f, "engine rejected submission: {reason}"),
            EngineError::Exec(msg) => write!(f, "engine execution error: {msg}"),
            EngineError::Output(msg) => write!(f, "engine output error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A shareable adjacency: the matrix requests are served against, with
/// the sparsity summary its tune decisions are keyed by. Cloning an
/// `Adjacency` is an `Arc` bump; wrap a matrix once and clone the handle
/// per client.
#[derive(Debug, Clone)]
pub struct Adjacency {
    csr: Arc<Csr>,
    /// Structural sparsity summary of *this* matrix, precomputed so the
    /// tuned path never rescans the matrix per request.
    sparsity: Arc<SparsityFingerprint>,
    /// The *tuning anchor*: the structural fingerprint [`TuneCache`] keys
    /// are built from. Freshly-wrapped adjacencies anchor on their own
    /// `sparsity`; [`Engine::apply_delta`] deliberately keeps the previous
    /// anchor while the degree histogram stays within the drift threshold,
    /// so every cached tune decision survives small structural updates.
    /// (Compiled kernels survive every update: they key on `rows / cols`
    /// and the request shape and take `nnz` at launch.)
    anchor: Arc<SparsityFingerprint>,
    /// Monotonic delta version: `0` at construction, `+1` per
    /// [`Engine::apply_delta`]. Together with `anchor` this is the
    /// adjacency's versioned identity: the version says *how many*
    /// updates happened, the anchor says whether tuning identity changed.
    version: u64,
}

impl Adjacency {
    /// Wrap a CSR adjacency for serving.
    #[must_use]
    pub fn new(csr: Csr) -> Adjacency {
        let sparsity = Arc::new(SparsityFingerprint::of(&csr));
        Adjacency { csr: Arc::new(csr), anchor: Arc::clone(&sparsity), sparsity, version: 0 }
    }

    /// The wrapped matrix.
    #[must_use]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The structural sparsity summary of this matrix.
    #[must_use]
    pub fn sparsity(&self) -> &SparsityFingerprint {
        &self.sparsity
    }

    /// The tuning anchor: the fingerprint tune decisions are keyed by.
    /// Equal to [`Adjacency::sparsity`] until an [`Engine::apply_delta`]
    /// below the drift threshold carries an older anchor forward.
    #[must_use]
    pub fn anchor(&self) -> &SparsityFingerprint {
        &self.anchor
    }

    /// Monotonic update version (`0` for a freshly wrapped matrix).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads draining the queue, and the most launches that run
    /// at once: workers and inline-serving callers share this many launch
    /// permits (see [`Engine::submit`]), so serving on a caller's thread
    /// adds no parallelism.
    pub workers: usize,
    /// Bound on queued (not yet dispatched) requests — the backpressure
    /// knob: blocking submits wait for space (at most until their
    /// deadline), `try_submit*` fails with [`EngineError::Rejected`]
    /// (`QueueFull`).
    pub queue_depth: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            queue_depth: DEFAULT_QUEUE_DEPTH,
        }
    }
}

struct Job {
    adj: Adjacency,
    req: OpRequest,
    enqueued: Instant,
    deadline: Option<Instant>,
    priority: Priority,
    tune: bool,
    reply: ReplyTx,
}

struct QueueState {
    queue: VecDeque<Job>,
    /// Launch permits in use, by workers and inline-serving callers;
    /// never more than [`Shared::permits`].
    launches: usize,
    /// Crash-safety test hook (see [`Engine::inject_worker_panic`]):
    /// each pending injection makes one draining worker panic while it
    /// holds the queue lock.
    inject_panics: usize,
    /// Occupancy test hook (see [`Engine::stall_worker`]): each pending
    /// gate parks one draining worker until its guard is dropped.
    stalls: Vec<mpsc::Receiver<()>>,
    shutdown: bool,
}

impl QueueState {
    fn hook_pending(&self) -> bool {
        self.inject_panics > 0 || !self.stalls.is_empty()
    }
}

/// One of the engine's launch permits, held by a worker for one tick or
/// by a caller serving its request inline. Dropping it hands it back and,
/// when it was the last free one and work is waiting, wakes the workers.
struct Permit<'a> {
    shared: &'a Shared,
}

impl<'a> Permit<'a> {
    /// Take a free permit; the caller checked one is free under the lock.
    fn take(shared: &'a Shared, st: &mut QueueState) -> Permit<'a> {
        st.launches += 1;
        debug_assert!(
            st.launches <= shared.permits(),
            "{} launches at once with {} permits",
            st.launches,
            shared.permits()
        );
        Permit { shared }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.shared.state);
        // Only a worker that found every permit taken waits for one back;
        // below the cap, whoever queued the work already woke a worker.
        let capped = st.launches == self.shared.permits();
        st.launches -= 1;
        let waiting = capped && (!st.queue.is_empty() || st.hook_pending());
        drop(st);
        if waiting {
            self.shared.not_empty.notify_all();
        }
    }
}

/// One ticket the engine issued whose client has not yet waited on it or
/// dropped it; counted in [`Shared::tickets`] while it lives.
#[derive(Debug)]
struct Outstanding(Arc<AtomicUsize>);

impl Outstanding {
    fn open(tickets: &Arc<AtomicUsize>) -> Outstanding {
        tickets.fetch_add(1, Ordering::Relaxed);
        Outstanding(Arc::clone(tickets))
    }
}

impl Drop for Outstanding {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

type Answer = Result<OpOutput, EngineError>;

/// A request's one-shot answer, filled once by whoever serves, sheds or
/// drops the request (before `submit` returns, for one served inline).
#[derive(Debug, Default)]
struct ReplySlot {
    answer: Mutex<Option<Answer>>,
    filled: Condvar,
}

impl ReplySlot {
    fn put(&self, answer: Answer) {
        *lock(&self.answer) = Some(answer);
        self.filled.notify_one();
    }
}

/// The serving end of a [`ReplySlot`]. Dropped unanswered, it answers
/// [`EngineError::Shutdown`]: what the ticket of a request the engine
/// lost reads.
struct ReplyTx(Option<Arc<ReplySlot>>);

impl ReplyTx {
    fn send(&mut self, answer: Answer) {
        if let Some(slot) = self.0.take() {
            slot.put(answer);
        }
    }
}

impl Drop for ReplyTx {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.put(Err(EngineError::Shutdown));
        }
    }
}

/// A reply slot and its serving end.
fn reply_slot() -> (ReplyTx, Arc<ReplySlot>) {
    let slot = Arc::new(ReplySlot::default());
    (ReplyTx(Some(Arc::clone(&slot))), slot)
}

/// How admission placed a submission.
enum Admitted<'a> {
    /// Serve it on the submitting thread, under this permit.
    Inline(Permit<'a>),
    /// Queue it at this position; the queue lock is still held.
    Queued(MutexGuard<'a, QueueState>, usize),
}

struct Shared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    config: EngineConfig,
    runtime: Arc<Runtime>,
    tune_cache: TuneCache<SpmmConfig>,
    /// Single-flight guard for tuning searches: [`TuneCache`] computes
    /// outside its lock by design, so without this, workers racing the
    /// *first* tuned requests of one adjacency would each pay the full
    /// search.
    tune_flight: Mutex<()>,
    /// Tickets issued and not yet waited on or dropped ([`Outstanding`]).
    /// A blocking submit is served inline only when this reads 0: a
    /// client with tickets in flight, or another client's ticket, means
    /// the workers can run the new request beside them.
    tickets: Arc<AtomicUsize>,
    /// Every anchor a tune decision was taken under, with the feature
    /// width it was timed at — the worklist a background retune replays
    /// (on a seeded operand of that width) when [`Engine::apply_delta`]
    /// re-anchors past the drift threshold.
    retune_registry: Mutex<HashMap<SparsityFingerprint, usize>>,
    /// In-flight background retune threads; joined by
    /// [`Engine::quiesce_retunes`] and at drop.
    retune_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stats: StatsInner,
}

impl Shared {
    /// Launch permits: one per worker.
    fn permits(&self) -> usize {
        self.config.workers.max(1)
    }
}

/// Result of any submitted request: the one generic ticket every op
/// answers through, waiting on a one-shot reply slot its server fills (a
/// request served on the submitting thread comes back with the slot
/// already filled). [`Ticket::wait`] yields the unified [`OpOutput`]; the
/// `wait_*` conveniences convert to the op's native result.
#[derive(Debug)]
#[must_use = "wait() on the ticket to receive the result"]
pub struct Ticket {
    slot: Arc<ReplySlot>,
    _outstanding: Outstanding,
}

impl Ticket {
    /// Block until the engine answers (at once for a request served on
    /// the submitting thread).
    ///
    /// # Errors
    /// Propagates the serving-side error, or [`EngineError::Shutdown`]
    /// when the engine died before answering.
    pub fn wait(self) -> Result<OpOutput, EngineError> {
        let answer = self
            .slot
            .filled
            .wait_while(lock(&self.slot.answer), |answer| answer.is_none())
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        answer.unwrap_or(Err(EngineError::Shutdown))
    }

    /// Wait and unwrap a dense (SpMM) result.
    ///
    /// # Errors
    /// Like [`Ticket::wait`], plus [`EngineError::Output`] on an op
    /// mismatch.
    pub fn wait_dense(self) -> Result<Dense, EngineError> {
        self.wait()?.into_dense()
    }

    /// Wait and unwrap a per-non-zero (SDDMM) result.
    ///
    /// # Errors
    /// Like [`Ticket::wait`], plus [`EngineError::Output`] on an op
    /// mismatch.
    pub fn wait_edges(self) -> Result<Vec<f32>, EngineError> {
        self.wait()?.into_edges()
    }

    /// Wait and unwrap a per-head (fused attention) result.
    ///
    /// # Errors
    /// Like [`Ticket::wait`], plus [`EngineError::Output`] on an op
    /// mismatch.
    pub fn wait_heads(self) -> Result<Vec<Dense>, EngineError> {
        self.wait()?.into_heads()
    }
}

/// Guard of [`Engine::stall_worker`]: one worker stays parked while it
/// lives. It borrows the engine, so the engine cannot shut down (and wait
/// for that worker) underneath it.
#[doc(hidden)]
pub struct WorkerStall<'a> {
    _guard: mpsc::Sender<()>,
    _engine: PhantomData<&'a Engine>,
}

/// Multi-tenant serving engine: owns a shared kernel-cache [`Runtime`]
/// and a [`TuneCache`] of SpMM decisions, accepts [`Submission`]s for any
/// served [`OpRequest`] from any number of client threads through one
/// submit path, and serves each request in its own kernel launch, under
/// its own tuning flag.
///
/// Submissions carry optional SLO envelopes — a deadline and a
/// [`Priority`] class. The queue serves higher priorities first and
/// earlier deadlines first within a class; the admission controller
/// sheds work it cannot serve in time ([`EngineError::Rejected`]); the
/// drain loop drops expired requests unexecuted.
///
/// Dropping the engine shuts it down: queued requests are still drained
/// and answered, then the workers exit.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// Start an engine with `config.workers` worker threads (and as many
    /// launch permits) and a fresh kernel cache.
    #[must_use]
    pub fn new(config: EngineConfig) -> Engine {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                launches: 0,
                inject_panics: 0,
                stalls: Vec::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            config: config.clone(),
            runtime: Arc::new(Runtime::new()),
            tune_cache: TuneCache::new(),
            tune_flight: Mutex::new(()),
            tickets: Arc::new(AtomicUsize::new(0)),
            retune_registry: Mutex::new(HashMap::new()),
            retune_threads: Mutex::new(Vec::new()),
            stats: StatsInner::default(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sparsetir-engine-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine { shared, workers }
    }

    /// The engine's kernel-cache runtime (for compilation accounting:
    /// `runtime().compilations()`, `runtime().cached()`).
    #[must_use]
    pub fn runtime(&self) -> &Runtime {
        &self.shared.runtime
    }

    /// The engine's per-(adjacency, op) tuning cache. Only an op whose
    /// launch reads a searched configuration (SpMM) ever consults it.
    #[must_use]
    pub fn tune_cache(&self) -> &TuneCache<SpmmConfig> {
        &self.shared.tune_cache
    }

    /// Snapshot the serving counters. Buffer-pool hit/miss counts come
    /// from the shared runtime's size-classed scratch pool and the kernel
    /// lookup/hit counts from its keyed cache entry; every other field
    /// comes from the engine's own atomics.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.shared.stats.snapshot();
        let runtime = &self.shared.runtime;
        let (hits, misses) = runtime.pool().counters();
        stats.pool_hits = hits;
        stats.pool_misses = misses;
        stats.kernel_lookups = runtime.keyed_lookups() as u64;
        stats.kernel_hits = runtime.keyed_hits() as u64;
        stats
    }

    /// Submit any op, blocking while the queue is at capacity. Accepts a
    /// [`Submission`] (op + SLO options) or a bare [`OpRequest`]
    /// (default options).
    ///
    /// A submission with a deadline blocks on a full queue at most until
    /// that deadline, and is shed at admission when the deadline is
    /// infeasible or already passed.
    ///
    /// When nobody is waiting — no other ticket of this engine is
    /// outstanding (issued and not yet waited on or dropped), the queue is
    /// empty, a launch permit is free and no test hook is pending — the
    /// request is served on the calling thread before `submit` returns,
    /// and the ticket is already answered ([`EngineStats::served_inline`]
    /// ticks). Otherwise it queues for a worker, behind everything it does
    /// not outrank: a client that submits several requests before waiting
    /// has the second and later ones run by the workers, side by side.
    ///
    /// # Errors
    /// [`EngineError::Shape`] when the operands are incompatible with
    /// the adjacency, [`EngineError::Rejected`] when the admission
    /// controller sheds the submission, and [`EngineError::Shutdown`]
    /// after shutdown.
    pub fn submit(
        &self,
        adj: &Adjacency,
        sub: impl Into<Submission>,
    ) -> Result<Ticket, EngineError> {
        self.submit_request(adj, sub.into(), true)
    }

    /// Submit any op without blocking: a full queue answers
    /// [`EngineError::Rejected`] (`QueueFull`) immediately (unless the
    /// submission outranks queued work, which it evicts instead). The
    /// request always queues for a worker, never serves on the calling
    /// thread, since that would block the caller for a launch.
    ///
    /// # Errors
    /// Like [`Engine::submit`].
    pub fn try_submit(
        &self,
        adj: &Adjacency,
        sub: impl Into<Submission>,
    ) -> Result<Ticket, EngineError> {
        self.submit_request(adj, sub.into(), false)
    }

    /// Blocking convenience: submit any op and wait for the unified
    /// [`OpOutput`].
    ///
    /// # Errors
    /// See [`Engine::submit`] and [`Ticket::wait`].
    pub fn serve(
        &self,
        adj: &Adjacency,
        sub: impl Into<Submission>,
    ) -> Result<OpOutput, EngineError> {
        self.submit(adj, sub)?.wait()
    }

    /// Apply a batch of edge updates to a served adjacency, returning the
    /// successor `Adjacency` (version bumped by one) while the engine
    /// keeps serving — the *stale-while-retune* state machine:
    ///
    /// - **Below (or at) the drift threshold** the successor keeps the
    ///   predecessor's tuning *anchor*: every cached tune decision stays
    ///   valid, nothing re-tunes, and [`EngineStats::retunes_skipped`]
    ///   ticks.
    /// - **Above the threshold** the successor anchors on its own
    ///   fingerprint. The tune decision taken under the old anchor is
    ///   *pre-seeded* under the new anchor's key (stale but correct — the
    ///   matrix changed shape-compatibly, so the old schedule still runs),
    ///   then ONE background thread replays the decision against the
    ///   updated matrix and atomically overwrites the seed in the
    ///   [`TuneCache`] when it lands. Requests never observe a gap: they
    ///   hit either the stale or the fresh decision. With nothing tuned
    ///   under the old anchor, or a new anchor that already has a
    ///   decision, there is nothing to seed or replay: the pass counts as
    ///   started and completed on the spot and no thread is spawned.
    ///
    /// Either way the successor's launches run on the kernels the
    /// predecessor's launches compiled: a served kernel keys on `rows / cols` and
    /// the request shape and binds `nnz` at launch, so only a `hyb` config,
    /// whose key lists its buckets, can compile anew. The predecessor
    /// adjacency stays fully servable (requests holding it execute as
    /// before) — callers swap to the successor at their own pace.
    ///
    /// # Errors
    /// [`EngineError::Shape`] when the delta addresses rows/columns
    /// outside the adjacency.
    pub fn apply_delta(
        &self,
        adj: &Adjacency,
        delta: &GraphDelta,
    ) -> Result<Adjacency, EngineError> {
        let shared = &self.shared;
        let next_csr =
            adj.csr().apply_delta(delta).map_err(|e| EngineError::Shape(e.to_string()))?;
        let mut next = Adjacency::new(next_csr);
        next.version = adj.version + 1;
        shared.stats.deltas_applied.fetch_add(1, Ordering::Relaxed);
        let drift = adj.anchor.drift(&next.sparsity);
        if drift <= DRIFT_THRESHOLD {
            next.anchor = Arc::clone(&adj.anchor);
            shared.stats.retunes_skipped.fetch_add(1, Ordering::Relaxed);
            return Ok(next);
        }
        // Re-anchor: move the old anchor's width to the new one, seeding
        // the new key with the stale decision so lookups keep hitting while
        // the background pass runs.
        let mut reg = lock(&shared.retune_registry);
        let work = match reg.remove(&*adj.anchor) {
            Some(feat) if !reg.contains_key(&*next.anchor) => {
                reg.insert((*next.anchor).clone(), feat);
                let key = measured_spmm_key(&next.anchor);
                if let Some(stale) = shared.tune_cache.peek(&measured_spmm_key(&adj.anchor)) {
                    shared.tune_cache.insert(key.clone(), stale);
                }
                Some((key, feat))
            }
            _ => None,
        };
        drop(reg);
        shared.stats.retunes_started.fetch_add(1, Ordering::Relaxed);
        let Some((key, feat)) = work else {
            shared.stats.retunes_completed.fetch_add(1, Ordering::Relaxed);
            return Ok(next);
        };
        let csr = Arc::clone(&next.csr);
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name("sparsetir-retune".into())
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let tuner = SpmmMeasuredEvaluator::new(&shared.runtime, &csr, feat);
                    shared.tune_cache.insert(key, tuner.decide());
                }));
                if result.is_err() {
                    shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                }
                shared.stats.retunes_completed.fetch_add(1, Ordering::Relaxed);
            })
            .expect("spawn retune thread");
        lock(&self.shared.retune_threads).push(handle);
        Ok(next)
    }

    /// Join every background retune spawned by [`Engine::apply_delta`].
    /// Serving does not require this — stale decisions answer until the
    /// swap — but tests and orderly shutdowns use it to observe the
    /// settled state ([`EngineStats::retunes_completed`] catches up to
    /// [`EngineStats::retunes_started`]).
    pub fn quiesce_retunes(&self) {
        let handles: Vec<_> = lock(&self.shared.retune_threads).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Crash-safety regression hook: make the next worker that drains the
    /// queue panic *while holding the queue lock*, poisoning the mutex.
    /// The engine must recover — the worker survives, later submits
    /// succeed, and [`EngineStats::worker_panics`] counts the event.
    #[doc(hidden)]
    pub fn inject_worker_panic(&self) {
        let mut st = lock(&self.shared.state);
        st.inject_panics += 1;
        drop(st);
        self.shared.not_empty.notify_one();
    }

    /// Occupancy test hook: the next worker to reach the queue parks —
    /// holding a launch permit but neither the lock nor a job — until the
    /// returned guard is dropped. Requests submitted meanwhile pile up
    /// behind it exactly as behind a long-running kernel, for as long as
    /// the test needs and however fast kernels run (with `workers: 1`,
    /// nothing is served until the drop, not even inline).
    #[doc(hidden)]
    #[must_use = "the worker resumes as soon as the guard is dropped"]
    pub fn stall_worker(&self) -> WorkerStall<'_> {
        let (guard, gate) = mpsc::channel();
        let mut st = lock(&self.shared.state);
        st.stalls.push(gate);
        drop(st);
        self.shared.not_empty.notify_one();
        WorkerStall { _guard: guard, _engine: PhantomData }
    }

    fn submit_request(
        &self,
        adj: &Adjacency,
        sub: Submission,
        block: bool,
    ) -> Result<Ticket, EngineError> {
        let Submission { req, opts } = sub;
        req.validate(adj.csr())?;
        let shared = &*self.shared;
        let enqueued = Instant::now();
        // A budget past the clock's range is no deadline at all.
        let deadline = opts.deadline.and_then(|d| enqueued.checked_add(d));
        let priority = opts.priority;
        let mut evicted = None;
        let admitted = self.admit(req.kind(), deadline, priority, block, &mut evicted);
        let ticket = admitted.map(|(admitted, outstanding)| {
            let (reply, slot) = reply_slot();
            let job =
                Job { adj: adj.clone(), req, enqueued, deadline, priority, tune: opts.tune, reply };
            match admitted {
                Admitted::Inline(permit) => {
                    shared.stats.served_inline.fetch_add(1, Ordering::Relaxed);
                    serve(shared, job);
                    drop(permit);
                }
                Admitted::Queued(mut st, pos) => {
                    st.queue.insert(pos, job);
                    shared.stats.queue_high_water.fetch_max(st.queue.len(), Ordering::Relaxed);
                    drop(st);
                    shared.not_empty.notify_all();
                }
            }
            Ticket { slot, _outstanding: outstanding }
        });
        // Answer the eviction victim outside the queue lock; its ticket
        // may already be dropped.
        if let Some(mut v) = evicted {
            shared.stats.shed(RejectReason::QueueFull, v.priority);
            v.reply.send(Err(EngineError::Rejected { reason: RejectReason::QueueFull }));
        }
        ticket
    }

    /// The admission controller: find (or free) a queue slot, shed what
    /// cannot be served in time, and place the submission — on the
    /// calling thread when a blocking submit finds nobody waiting, else
    /// in priority-then-deadline order — counting its ticket outstanding.
    fn admit(
        &self,
        kind: &str,
        deadline: Option<Instant>,
        priority: Priority,
        block: bool,
        evicted: &mut Option<Job>,
    ) -> Result<(Admitted<'_>, Outstanding), EngineError> {
        let shared = &*self.shared;
        let depth = shared.config.queue_depth.max(1);
        let mut st = lock(&shared.state);
        loop {
            if st.shutdown {
                return Err(EngineError::Shutdown);
            }
            let now = Instant::now();
            if deadline.is_some_and(|dl| dl <= now) {
                shared.stats.shed(RejectReason::Expired, priority);
                return Err(EngineError::Rejected { reason: RejectReason::Expired });
            }
            if st.queue.len() < depth {
                break;
            }
            // Full queue: a higher-priority submission takes the slot of
            // the queue's lowest-ranked entry instead of waiting behind
            // it — this is what keeps Hi traffic unstarvable under a
            // saturating Lo flood.
            if st.queue.back().is_some_and(|back| back.priority < priority) {
                *evicted = st.queue.pop_back();
                break;
            }
            if !block {
                shared.stats.shed(RejectReason::QueueFull, priority);
                return Err(EngineError::Rejected { reason: RejectReason::QueueFull });
            }
            st = match deadline {
                // A deadlined blocking submit waits for space at most
                // until its deadline (the next loop turn sheds it as
                // Expired).
                Some(dl) => {
                    let left = dl.saturating_duration_since(now);
                    shared.not_full.wait_timeout(st, left).unwrap_or_else(PoisonError::into_inner).0
                }
                None => shared.not_full.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
        }
        // Nobody is waiting: no ticket in flight whose request a worker
        // could run beside this one, no queued request to
        // overtake, a permit free and no test hook for a worker to take
        // first.
        let inline = block
            && shared.tickets.load(Ordering::Relaxed) == 0
            && st.queue.is_empty()
            && st.launches < shared.permits()
            && !st.hook_pending();
        let pos = if inline { 0 } else { insert_pos(&st.queue, priority, deadline) };
        // Deadline-feasibility check: with `pos` requests served first
        // at roughly the op's estimated execution time each (single
        // worker assumed — a deliberately conservative model), would this
        // request still answer in time? Shed now
        // rather than let it expire in the queue. No estimate yet (cold
        // kind) admits optimistically.
        if let Some(dl) = deadline {
            let est = shared.stats.exec_estimate_ns(kind);
            if est > 0 {
                let eta = Duration::from_nanos(est.saturating_mul(pos as u64 + 1));
                if Instant::now() + eta > dl {
                    shared.stats.shed(RejectReason::DeadlineInfeasible, priority);
                    return Err(EngineError::Rejected { reason: RejectReason::DeadlineInfeasible });
                }
            }
        }
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let outstanding = Outstanding::open(&shared.tickets);
        if inline {
            return Ok((Admitted::Inline(Permit::take(shared, &mut st)), outstanding));
        }
        Ok((Admitted::Queued(st, pos), outstanding))
    }
}

/// Where a new submission slots into the ordered queue: priority
/// descending, then deadline ascending (deadline-less after deadlined
/// within a class), then admission order — it goes after every entry it
/// does not outrank, so default-option submissions keep exact FIFO order.
fn insert_pos(queue: &VecDeque<Job>, priority: Priority, deadline: Option<Instant>) -> usize {
    queue.partition_point(|q| {
        if q.priority != priority {
            return q.priority > priority;
        }
        match (q.deadline, deadline) {
            (Some(theirs), Some(ours)) => theirs <= ours,
            (None, Some(_)) => false,
            (_, None) => true,
        }
    })
}

impl Drop for Engine {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.quiesce_retunes();
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// The payload of [`Engine::inject_worker_panic`]'s panic.
const INJECTED_PANIC: &str = "injected worker panic (crash-safety test hook)";

fn worker_loop(shared: &Shared) {
    loop {
        // A panic anywhere in a tick — including the injected lock-held
        // panic of the crash-safety tests — must not kill the worker:
        // catch it, count it, keep draining. The queue mutex recovers
        // from the poisoning via `lock`. The tick's launch permit lives
        // out here and goes back only once the tick is fully accounted,
        // `worker_panics` included, so no caller takes that permit ahead
        // of the count.
        let mut permit = None;
        let tick = catch_unwind(AssertUnwindSafe(|| worker_tick(shared, &mut permit)));
        match tick {
            Ok(true) => {}
            Ok(false) => return,
            // The injected panic counted itself before it was raised.
            Err(payload) if payload.downcast_ref::<&str>() == Some(&INJECTED_PANIC) => {}
            Err(_) => {
                shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(permit);
    }
}

/// One drain-and-serve iteration; `false` means shutdown. Whatever the
/// tick takes — a request or a test hook — it takes under a launch permit,
/// left in `permit`.
fn worker_tick<'a>(shared: &'a Shared, permit: &mut Option<Permit<'a>>) -> bool {
    let mut expired = Vec::new();
    let job = {
        let mut st = lock(&shared.state);
        loop {
            // While inline callers hold every permit, queued work waits
            // for the first permit back (its holder wakes us). A hook
            // comes first, while `expired` is still empty: leaving the
            // tick early must not drop a swept request unanswered.
            let permit_free = st.launches < shared.permits();
            if permit_free {
                if st.inject_panics > 0 {
                    st.inject_panics -= 1;
                    *permit = Some(Permit::take(shared, &mut st));
                    // Counted before it unwinds: a first unwind (backtrace
                    // included) takes milliseconds, long enough for the
                    // other permits' holders to finish every request and
                    // read the counters ahead of a count taken after it.
                    shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                    std::panic::panic_any(INJECTED_PANIC)
                }
                if let Some(gate) = st.stalls.pop() {
                    *permit = Some(Permit::take(shared, &mut st));
                    drop(st);
                    // Parked until the test drops its `WorkerStall`.
                    let _ = gate.recv();
                    return true;
                }
            }
            // Expired-at-drain requests are swept out before dispatch and
            // answered Expired — their operands never reach a kernel.
            // Answering needs no permit, so this runs even while every
            // permit is taken.
            sweep_expired(&mut st.queue, &mut expired);
            if permit_free {
                if let Some(job) = st.queue.pop_front() {
                    *permit = Some(Permit::take(shared, &mut st));
                    break Some(job);
                }
            }
            if !expired.is_empty() {
                // Nothing left to serve, but sweep results to deliver.
                break None;
            }
            if st.shutdown && st.queue.is_empty() {
                return false;
            }
            st = shared.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    };
    // Space was freed: wake blocked submitters.
    shared.not_full.notify_all();
    answer_expired(shared, expired);
    if let Some(job) = job {
        serve(shared, job);
    }
    true
}

/// Remove every queued job whose deadline has passed, preserving order.
fn sweep_expired(queue: &mut VecDeque<Job>, expired: &mut Vec<Job>) {
    let now = Instant::now();
    let mut i = 0;
    while i < queue.len() {
        if queue[i].deadline.is_some_and(|dl| dl <= now) {
            if let Some(job) = queue.remove(i) {
                expired.push(job);
            }
        } else {
            i += 1;
        }
    }
}

/// Answer drain-time-expired jobs with `Rejected { Expired }` — latency
/// is recorded (they waited in the queue), but they never execute.
fn answer_expired(shared: &Shared, expired: Vec<Job>) {
    for mut job in expired {
        shared.stats.record_latency(job.enqueued.elapsed().as_nanos() as u64);
        shared.stats.expire(job.priority);
        job.reply.send(Err(EngineError::Rejected { reason: RejectReason::Expired }));
    }
}

/// The tuned SpMM configuration for one adjacency: the engine-owned
/// [`TuneCache`] memoizes the measured decision of `kernels::tune`
/// ([`SpmmMeasuredEvaluator::decide`]: the whole launch of each shortlist
/// config timed on the engine's own runtime and the triggering request's
/// operand, CSR kept unless a challenger beats it by more than
/// `kernels::tune::CHALLENGER_MARGIN`) per sparsity fingerprint, so only the
/// first tuned request on a new adjacency pays it. The decision is keyed on
/// the adjacency alone — request widths vary, so it is timed at the
/// triggering request's width and reused for all widths (the §2
/// amortization trade).
fn tuned_spmm_config(shared: &Shared, adj: &Adjacency, x: &Dense) -> SpmmConfig {
    // Keyed on the *anchor*, not the matrix's own fingerprint: a
    // below-threshold `apply_delta` successor shares its predecessor's
    // anchor, so its requests hit the predecessor's cached decision —
    // stale-while-retune serving in the hit path.
    let key = measured_spmm_key(&adj.anchor);
    // Double-checked single flight: serve hits without the guard, and
    // take it only on a miss — TuneCache computes outside its own lock,
    // so concurrent first requests of one adjacency would otherwise each
    // run the full search, while a global guard on the hit path would
    // serialize unrelated adjacencies behind a slow search.
    if let Some(config) = shared.tune_cache.get(&key) {
        return config;
    }
    let _flight = lock(&shared.tune_flight);
    let (config, hit) = shared.tune_cache.get_or_insert_with(key.clone(), || {
        SpmmMeasuredEvaluator::with_operand(&shared.runtime, adj.csr(), x).decide()
    });
    if !hit {
        // First decision under this anchor: remember the width it was
        // timed at, so a future re-anchor can replay it against the
        // updated matrix in the background.
        lock(&shared.retune_registry).entry(key.fingerprint).or_insert(x.cols());
    }
    config
}

/// Serve one request — popped by a worker, or on its submitting thread —
/// in its own launch, under its own tuning flag, and answer it. A
/// panicking kernel answers [`EngineError::Exec`] instead of killing the
/// thread that serves it.
fn serve(shared: &Shared, mut job: Job) {
    let kind = job.req.kind();
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    // Sample the thread-local copy counter around the launch: the delta is
    // exactly the bytes the launch memcpy'd (0 on the view paths).
    let copied_before = bytes_copied_on_thread();
    let result = catch_unwind(AssertUnwindSafe(|| {
        // The config lookup sits inside the catch: a panicking tuning
        // search must answer `Exec` too, not drop the reply. Only SpMM
        // reads a config.
        let config = match &job.req {
            OpRequest::Spmm(x) if job.tune => tuned_spmm_config(shared, &job.adj, x),
            _ => SpmmConfig::default(),
        };
        let out = launch(&shared.runtime, job.adj.csr(), &config, &job.req)?;
        // The launch's wall time is admission's execution estimate.
        shared.stats.record_exec(kind, started.elapsed().as_nanos() as u64);
        Ok::<_, Box<dyn std::error::Error>>(out)
    }));
    shared
        .stats
        .bytes_copied
        .fetch_add(bytes_copied_on_thread().saturating_sub(copied_before), Ordering::Relaxed);
    let answer = match result {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(EngineError::Exec(e.to_string())),
        Err(panic) => {
            shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked while executing the request".to_string());
            Err(EngineError::Exec(format!("worker panic: {msg}")))
        }
    };
    // Record latency + outcome and deliver the answer (a client that
    // dropped its ticket is not an error).
    shared.stats.record_latency(job.enqueued.elapsed().as_nanos() as u64);
    if answer.is_ok() {
        shared.stats.serve(job.priority);
    } else {
        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
    }
    job.reply.send(answer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::prelude::gen;

    /// A reply slot whose serving end is dropped unanswered — a job lost
    /// to shutdown or an unwinding thread — answers `Shutdown`, also to a
    /// ticket already waiting on another thread; a ticket stops counting
    /// as outstanding once waited on.
    #[test]
    fn a_reply_slot_dropped_unanswered_reads_shutdown() {
        let tickets = Arc::new(AtomicUsize::new(0));
        let ticket = |slot| Ticket { slot, _outstanding: Outstanding::open(&tickets) };
        let (tx, slot) = reply_slot();
        drop(tx);
        assert_eq!(ticket(slot).wait().err(), Some(EngineError::Shutdown));

        let (tx, slot) = reply_slot();
        let pending = ticket(slot);
        let waiter = std::thread::spawn(move || pending.wait().err());
        std::thread::sleep(Duration::from_millis(5));
        drop(tx);
        assert_eq!(waiter.join().expect("waiter returns"), Some(EngineError::Shutdown));

        let (mut tx, slot) = reply_slot();
        let answered = ticket(slot);
        tx.send(Ok(OpOutput::Edges(vec![1.0])));
        assert_eq!(tickets.load(Ordering::Relaxed), 1);
        let got = answered.wait_edges();
        assert_eq!(got, Ok(vec![1.0]), "an answered slot is not overwritten by the drop");
        assert_eq!(tickets.load(Ordering::Relaxed), 0);
    }

    /// Four blocking clients on a two-worker engine: workers and inline
    /// callers share two launch permits, so no more than two launches
    /// ever run at once (`Permit::take` asserts it in debug builds; an
    /// observer samples it in every profile), and every answer is right.
    #[test]
    fn launch_permits_never_exceed_workers() {
        const CLIENTS: usize = 4;
        const PER_CLIENT: usize = 40;
        let mut rng = gen::rng(0x9e);
        let a = gen::random_csr(48, 48, 0.2, &mut rng);
        let adj = Adjacency::new(a.clone());
        let engine = Engine::new(EngineConfig { workers: 2, queue_depth: 16 });
        let done = std::sync::atomic::AtomicBool::new(false);
        let peak = std::thread::scope(|s| {
            let observer = s.spawn(|| {
                let mut peak = 0;
                while !done.load(Ordering::Relaxed) {
                    peak = peak.max(lock(&engine.shared.state).launches);
                    std::thread::yield_now();
                }
                peak
            });
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let (engine, adj, a) = (&engine, &adj, &a);
                    s.spawn(move || {
                        let mut rng = gen::rng(0x9f + client as u64);
                        for _ in 0..PER_CLIENT {
                            let x = gen::random_dense(48, 1 + client % 3, &mut rng);
                            let got = engine
                                .serve(adj, OpRequest::Spmm(x.clone()))
                                .and_then(OpOutput::into_dense)
                                .expect("serves");
                            assert!(got.approx_eq(&a.spmm(&x).expect("reference"), 1e-4));
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().expect("client finishes");
            }
            done.store(true, Ordering::Relaxed);
            observer.join().expect("observer finishes")
        });
        assert!(peak <= 2, "{peak} launches at once with two permits");
        let stats = engine.stats();
        assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
        assert_eq!((stats.failed, stats.worker_panics), (0, 0));
    }
}
