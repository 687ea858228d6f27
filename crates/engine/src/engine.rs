//! The serving engine, caller-run: a bounded, ordered request queue
//! served by the threads that submit and wait, one request per kernel
//! launch. [`OpRequest`] is the table of served ops: each variant is
//! checked at submit by its kernel's request-shape rule and launched
//! through its kernel's one entry point.
//!
//! The engine starts no thread. It holds [`EngineConfig::workers`] launch
//! permits, so at most that many launches run at once. A blocking
//! [`Engine::submit`] that finds a permit free and nothing queued that it
//! does not outrank serves its request on the calling thread and returns
//! an answered ticket ([`EngineStats::served_inline`]). Anything else
//! queues, in priority → deadline → arrival order, and [`Ticket::wait`]
//! takes a permit and serves queue heads, sweeping expired ones, until
//! its own answer lands; with no permit free it sleeps until one comes
//! back or its answer is filled. [`Engine::try_submit`] always queues,
//! because it must not block. So:
//!
//! - a queued request makes progress only while some caller waits or
//!   submits;
//! - a dropped ticket's request is still served, by the next waiter
//!   whose own request ranks behind it, or at the engine's drop;
//! - one client holding many tickets is served one launch at a time,
//!   however many cores the host has.

use crate::op::{launch, OpOutput, OpRequest};
use crate::stats::{EngineStats, StatsInner};
use crate::submission::{Priority, RejectReason, Submission};
use sparsetir_ir::exec::Runtime;
use sparsetir_kernels::prelude::{bytes_copied_on_thread, SpmmConfig};
use sparsetir_kernels::tune::{
    measured_spmm_key, SparsityFingerprint, SpmmMeasuredEvaluator, TuneCache, TuneKey,
};
use sparsetir_smat::prelude::{Csr, Dense, GraphDelta};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default bound on the request queue (the backpressure knob).
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// How far the log2-degree histogram may drift (see
/// [`SparsityFingerprint::drift`]: L1 distance over row count — a single
/// moved row contributes 2) before [`Engine::apply_delta`] re-anchors the
/// adjacency's tuning identity and queues a retune. At or
/// below it the old anchor is kept: cached tune decisions and compiled
/// kernels keep serving unchanged. At `0.1`, five percent of rows changing
/// degree bin re-tunes; anything less keeps serving the existing decisions.
pub const DRIFT_THRESHOLD: f64 = 0.1;

/// Lock a mutex, recovering from poisoning: launches run outside every
/// lock, inside [`contain`], so the flag carries nothing we act on.
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
    /// The admission controller or a serving caller refused the submission;
    /// the reason says whether the queue was full, the deadline was
    /// infeasible, or the deadline had already passed.
    Rejected {
        /// Why the submission was refused.
        reason: RejectReason,
    },
    /// Kernel lowering/compilation/execution failed (including a panic
    /// while serving, which the engine survives).
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
    /// Launch permits: the most launches that run at once, each on a
    /// thread that submits or waits (the engine starts none).
    pub workers: usize,
    /// Bound on queued requests — the backpressure knob: a blocking
    /// submit against a full queue serves the queue head itself (waiting
    /// at most until its deadline for a permit), `try_submit*` fails with
    /// [`EngineError::Rejected`] (`QueueFull`).
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

/// A queued unit of work and its place in the queue's order.
struct Job {
    enqueued: Instant,
    deadline: Option<Instant>,
    priority: Priority,
    task: Task,
}

enum Task {
    /// A client's request, answered through `reply`.
    Request { adj: Adjacency, req: OpRequest, tune: bool, reply: ReplyTx },
    /// A re-anchor's retune ([`Engine::apply_delta`]): replay the SpMM
    /// decision timed at width `feat` against `csr` and file it under
    /// `key`, over the stale seed.
    Retune { csr: Arc<Csr>, key: TuneKey, feat: usize },
}

impl Job {
    fn is_request(&self) -> bool {
        matches!(self.task, Task::Request { .. })
    }

    /// Answer a request that will not be served (a retune has nobody to
    /// answer).
    fn refuse(&mut self, reason: RejectReason) {
        if let Task::Request { reply, .. } = &mut self.task {
            reply.send(Err(EngineError::Rejected { reason }));
        }
    }
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    /// Launch permits in use; never more than [`Shared::permits`].
    launches: usize,
    /// Threads asleep on [`Shared::wake`].
    sleepers: usize,
    /// Retune jobs queued or running ([`Engine::quiesce_retunes`] waits
    /// for 0).
    retunes: usize,
    shutdown: bool,
}

type Answer = Result<OpOutput, EngineError>;

/// A request's one-shot answer, filled once by whoever serves, sheds or
/// drops the request (before `submit` returns, for one served inline).
#[derive(Debug, Default)]
struct ReplySlot(Mutex<Option<Answer>>);

/// The serving end of a [`ReplySlot`]. Dropped unanswered, it answers
/// [`EngineError::Shutdown`]: what the ticket of a request the engine
/// lost reads.
struct ReplyTx(Option<Arc<ReplySlot>>);

impl ReplyTx {
    fn send(&mut self, answer: Answer) {
        if let Some(slot) = self.0.take() {
            *lock(&slot.0) = Some(answer);
        }
    }
}

impl Drop for ReplyTx {
    fn drop(&mut self) {
        self.send(Err(EngineError::Shutdown));
    }
}

/// A reply slot and its serving end.
fn reply_slot() -> (ReplyTx, Arc<ReplySlot>) {
    let slot = Arc::new(ReplySlot::default());
    (ReplyTx(Some(Arc::clone(&slot))), slot)
}

struct Shared {
    state: Mutex<QueueState>,
    /// Wakes sleeping callers: a permit came back or an answer was filled.
    wake: Condvar,
    config: EngineConfig,
    runtime: Arc<Runtime>,
    tune_cache: TuneCache<SpmmConfig>,
    /// Single-flight guard for tuning searches: [`TuneCache`] computes
    /// outside its lock by design, so without this, callers racing the
    /// *first* tuned requests of one adjacency would each pay the full
    /// search.
    tune_flight: Mutex<()>,
    /// Every anchor a tune decision was taken under, with the feature
    /// width it was timed at — the worklist a retune replays (on a seeded
    /// operand of that width) when [`Engine::apply_delta`] re-anchors past
    /// the drift threshold.
    retune_registry: Mutex<HashMap<SparsityFingerprint, usize>>,
    /// Test hook ([`Engine::inject_worker_panic`]): the next served
    /// launch panics.
    panic_next: AtomicBool,
    stats: StatsInner,
}

impl Shared {
    fn permits(&self) -> usize {
        self.config.workers.max(1)
    }

    /// Serve queue heads on the calling thread until `done` holds (it is
    /// checked under the queue lock).
    fn serve_until(&self, mut done: impl FnMut(&QueueState) -> bool) {
        let mut st = lock(&self.state);
        while !done(&st) {
            st = self.step(st, None);
        }
    }

    /// One turn of caller-run service: answer the queued requests whose
    /// deadline has passed; else serve the queue head under a free permit;
    /// else sleep until woken (or until `until`).
    fn step<'a>(
        &'a self,
        mut st: MutexGuard<'a, QueueState>,
        until: Option<Instant>,
    ) -> MutexGuard<'a, QueueState> {
        if self.sweep_expired(&mut st) {
            return st;
        }
        if st.launches < self.permits() {
            if let Some(job) = st.queue.pop_front() {
                let retune = !job.is_request();
                st.launches += 1;
                drop(st);
                serve(self, job);
                let mut st = lock(&self.state);
                st.retunes -= usize::from(retune);
                self.release(&mut st);
                return st;
            }
        }
        st.sleepers += 1;
        let mut st = match until {
            Some(t) => {
                let left = t.saturating_duration_since(Instant::now());
                self.wake.wait_timeout(st, left).unwrap_or_else(PoisonError::into_inner).0
            }
            None => self.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
        };
        st.sleepers -= 1;
        st
    }

    /// Hand a launch permit back and wake the sleepers: one may take it,
    /// or find its answer filled by the launch that held it.
    fn release(&self, st: &mut QueueState) {
        debug_assert!(st.launches <= self.permits(), "{} launches at once", st.launches);
        st.launches -= 1;
        if st.sleepers > 0 {
            self.wake.notify_all();
        }
    }

    /// Remove every queued request whose deadline has passed, preserving
    /// order, and answer it `Rejected { Expired }` unexecuted — its
    /// operands never reach a kernel, and its latency is recorded (it
    /// waited in the queue). Returns whether anything expired.
    fn sweep_expired(&self, st: &mut QueueState) -> bool {
        let (now, before) = (Instant::now(), st.queue.len());
        st.queue.retain_mut(|job| {
            let live = job.deadline.is_none_or(|dl| dl > now);
            if !live {
                self.stats.record_latency(job.enqueued.elapsed().as_nanos() as u64);
                self.stats.expire(job.priority);
                job.refuse(RejectReason::Expired);
            }
            live
        });
        let swept = st.queue.len() < before;
        if swept && st.sleepers > 0 {
            self.wake.notify_all();
        }
        swept
    }
}

/// Result of any submitted request: the one generic ticket every op
/// answers through. A request served on the submitting thread comes back
/// answered; for a queued one, [`Ticket::wait`] serves the queue until it
/// is. [`Ticket::wait`] yields the unified [`OpOutput`]; the `wait_*`
/// conveniences convert to the op's native result.
#[must_use = "wait() on the ticket to receive the result"]
pub struct Ticket {
    slot: Arc<ReplySlot>,
    shared: Arc<Shared>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").field("slot", &self.slot).finish_non_exhaustive()
    }
}

impl Ticket {
    /// The answer: at once for a request already served; else, on this
    /// thread, take a launch permit and serve queue heads in order until
    /// this request's answer lands (sleeping while every permit is taken).
    ///
    /// # Errors
    /// Propagates the serving-side error, or [`EngineError::Shutdown`]
    /// when the engine lost the request.
    pub fn wait(self) -> Result<OpOutput, EngineError> {
        let mut answer = lock(&self.slot.0).take();
        if answer.is_none() {
            self.shared.serve_until(|_| {
                answer = lock(&self.slot.0).take();
                answer.is_some()
            });
        }
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

/// Multi-tenant serving engine: owns a shared kernel-cache [`Runtime`]
/// and a [`TuneCache`] of SpMM decisions, accepts [`Submission`]s for any
/// served [`OpRequest`] from any number of client threads through one
/// submit path, and serves each request in its own kernel launch, under
/// its own tuning flag, on a thread that submits or waits.
///
/// Submissions carry optional SLO envelopes — a deadline and a
/// [`Priority`] class. The queue serves higher priorities first and
/// earlier deadlines first within a class; the admission controller
/// sheds work it cannot serve in time ([`EngineError::Rejected`]); a
/// serving caller answers expired requests unexecuted.
///
/// Dropping the engine shuts it down: the dropping thread serves and
/// answers whatever is still queued.
pub struct Engine {
    shared: Arc<Shared>,
}

impl Engine {
    /// An engine with `config.workers` launch permits and a fresh kernel
    /// cache. It starts no thread.
    #[must_use]
    pub fn new(config: EngineConfig) -> Engine {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::default()),
            wake: Condvar::new(),
            config,
            runtime: Arc::new(Runtime::new()),
            tune_cache: TuneCache::new(),
            tune_flight: Mutex::new(()),
            retune_registry: Mutex::new(HashMap::new()),
            panic_next: AtomicBool::new(false),
            stats: StatsInner::default(),
        });
        Engine { shared }
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

    /// Submit any op. Accepts a [`Submission`] (op + SLO options) or a
    /// bare [`OpRequest`] (default options).
    ///
    /// When a launch permit is free and nothing is queued that the
    /// submission does not outrank, the request is served on the calling
    /// thread before `submit` returns, and the ticket is already answered
    /// ([`EngineStats::served_inline`] ticks). Otherwise it queues behind
    /// everything it does not outrank, for [`Ticket::wait`] to serve.
    ///
    /// Against a full queue, a submit serves the queue head itself (or,
    /// with every permit taken, sleeps until one comes back) until there
    /// is space; a submission with a deadline does so at most until that
    /// deadline. A submission is shed at admission when its deadline is
    /// infeasible or already passed.
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
    /// request always queues, never serves on the calling thread, since
    /// that would block the caller for a launch; it is served when some
    /// caller waits.
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
    ///   and ONE retune job queues, ranked like a `Normal` request with no
    ///   deadline submitted now: the caller that serves it replays the
    ///   decision against the updated matrix and overwrites the seed in
    ///   the [`TuneCache`]. Requests never observe a gap: they hit either
    ///   the stale or the fresh decision. A retune job never expires, is
    ///   never evicted and counts toward the queue bound. With nothing
    ///   tuned under the old anchor, or a new anchor that already has a
    ///   decision, there is nothing to seed or replay: the pass counts as
    ///   started and completed on the spot and nothing queues.
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
        // the new key with the stale decision so lookups keep hitting until
        // the retune runs.
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
        let task = Task::Retune { csr: Arc::clone(&next.csr), key, feat };
        let job =
            Job { enqueued: Instant::now(), deadline: None, priority: Priority::Normal, task };
        let mut st = lock(&shared.state);
        let pos = insert_pos(&st.queue, job.priority, None);
        st.queue.insert(pos, job);
        st.retunes += 1;
        Ok(next)
    }

    /// Serve queue heads on this thread until no retune job queued by
    /// [`Engine::apply_delta`] is left queued or running. Serving does not
    /// require this — stale decisions answer until the swap — but tests
    /// and orderly shutdowns use it to observe the settled state
    /// ([`EngineStats::retunes_completed`] catches up to
    /// [`EngineStats::retunes_started`]).
    pub fn quiesce_retunes(&self) {
        self.shared.serve_until(|st| st.retunes == 0);
    }

    /// Crash-safety regression hook: make the next served launch panic,
    /// inside the catch every launch runs under. Its request is answered
    /// [`EngineError::Exec`], [`EngineStats::worker_panics`] counts the
    /// event, and the serving thread and the engine carry on.
    #[doc(hidden)]
    pub fn inject_worker_panic(&self) {
        self.shared.panic_next.store(true, Ordering::Relaxed);
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
        let (mut st, pos) = self.admit(req.kind(), deadline, priority, block)?;
        let (reply, slot) = reply_slot();
        let task = Task::Request { adj: adj.clone(), req, tune: opts.tune, reply };
        let job = Job { enqueued, deadline, priority, task };
        // Nothing queued that this submission does not outrank, and a
        // permit free: serve it here.
        if block && pos == 0 && st.launches < shared.permits() {
            st.launches += 1;
            drop(st);
            shared.stats.served_inline.fetch_add(1, Ordering::Relaxed);
            serve(shared, job);
            shared.release(&mut lock(&shared.state));
        } else {
            st.queue.insert(pos, job);
            shared.stats.queue_high_water.fetch_max(st.queue.len(), Ordering::Relaxed);
        }
        Ok(Ticket { slot, shared: Arc::clone(&self.shared) })
    }

    /// The admission controller: find (or free) a queue slot, shed what
    /// cannot be served in time, and count the submission. Returns the
    /// queue lock and the submission's position in priority-then-deadline
    /// order.
    fn admit(
        &self,
        kind: &str,
        deadline: Option<Instant>,
        priority: Priority,
        block: bool,
    ) -> Result<(MutexGuard<'_, QueueState>, usize), EngineError> {
        let shared = &*self.shared;
        let depth = shared.config.queue_depth.max(1);
        let mut st = lock(&shared.state);
        loop {
            if st.shutdown {
                return Err(EngineError::Shutdown);
            }
            if deadline.is_some_and(|dl| dl <= Instant::now()) {
                shared.stats.shed(RejectReason::Expired, priority);
                return Err(EngineError::Rejected { reason: RejectReason::Expired });
            }
            if st.queue.len() < depth {
                break;
            }
            // Full queue: a higher-priority submission takes the slot of
            // the queue's lowest-ranked request instead of waiting behind
            // it — this is what keeps Hi traffic unstarvable under a
            // saturating Lo flood.
            let last = st.queue.iter().rposition(Job::is_request);
            let outranked = last.filter(|&i| st.queue[i].priority < priority);
            if let Some(mut victim) = outranked.and_then(|i| st.queue.remove(i)) {
                shared.stats.shed(RejectReason::QueueFull, victim.priority);
                shared.stats.evicted.fetch_add(1, Ordering::Relaxed);
                victim.refuse(RejectReason::QueueFull);
                if st.sleepers > 0 {
                    shared.wake.notify_all();
                }
                break;
            }
            if !block {
                shared.stats.shed(RejectReason::QueueFull, priority);
                return Err(EngineError::Rejected { reason: RejectReason::QueueFull });
            }
            // A blocking submit makes the space itself: it serves the
            // queue head (the next loop turn sheds it as Expired once its
            // deadline passes).
            st = shared.step(st, deadline);
        }
        let pos = insert_pos(&st.queue, priority, deadline);
        // Deadline-feasibility check: with `pos` requests served first
        // at roughly the op's estimated execution time each (one launch at
        // a time assumed — a deliberately conservative model), would this
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
        Ok((st, pos))
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
    /// Shut down: refuse new submissions and serve everything still
    /// queued on the dropping thread, so every ticket is answered.
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.serve_until(|st| st.queue.is_empty());
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
        // timed at, so a future re-anchor's retune can replay it against
        // the updated matrix.
        lock(&shared.retune_registry).entry(key.fingerprint).or_insert(x.cols());
    }
    config
}

/// Serve one job on the calling thread, under a launch permit: a request
/// in its own launch, under its own tuning flag, answered; or a retune,
/// filed in the tune cache. A panicking kernel or tuning search answers
/// [`EngineError::Exec`] (ends the retune) instead of unwinding through
/// the thread that serves it.
fn serve(shared: &Shared, job: Job) {
    let Job { enqueued, priority, task, .. } = job;
    let (adj, req, tune, mut reply) = match task {
        Task::Request { adj, req, tune, reply } => (adj, req, tune, reply),
        Task::Retune { csr, key, feat } => {
            let _ = contain(shared, || {
                let tuner = SpmmMeasuredEvaluator::new(&shared.runtime, &csr, feat);
                shared.tune_cache.insert(key, tuner.decide());
            });
            shared.stats.retunes_completed.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    // Sample the thread-local copy counter around the launch: the delta is
    // exactly the bytes the launch memcpy'd (0 on the view paths).
    let copied_before = bytes_copied_on_thread();
    let result = contain(shared, || {
        if shared.panic_next.load(Ordering::Relaxed)
            && shared.panic_next.swap(false, Ordering::Relaxed)
        {
            panic!("injected launch panic (crash-safety test hook)");
        }
        // The config lookup sits inside the catch: a panicking tuning
        // search must answer `Exec` too, not drop the reply. Only SpMM
        // reads a config.
        let config = match &req {
            OpRequest::Spmm(x) if tune => tuned_spmm_config(shared, &adj, x),
            _ => SpmmConfig::default(),
        };
        let out = launch(&shared.runtime, adj.csr(), &config, &req)?;
        // The launch's wall time is admission's execution estimate.
        shared.stats.record_exec(req.kind(), started.elapsed().as_nanos() as u64);
        Ok::<_, Box<dyn std::error::Error>>(out)
    });
    shared
        .stats
        .bytes_copied
        .fetch_add(bytes_copied_on_thread().saturating_sub(copied_before), Ordering::Relaxed);
    let answer = match result {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(EngineError::Exec(e.to_string())),
        Err(msg) => Err(EngineError::Exec(format!("panic while serving: {msg}"))),
    };
    // Record latency + outcome and deliver the answer (a client that
    // dropped its ticket is not an error).
    shared.stats.record_latency(enqueued.elapsed().as_nanos() as u64);
    if answer.is_ok() {
        shared.stats.serve(priority);
    } else {
        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
    }
    reply.send(answer);
}

/// Run `f`, containing a panic: it is counted in
/// [`EngineStats::worker_panics`] and comes back as its message.
fn contain<T>(shared: &Shared, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
        panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panicked while serving the request".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::prelude::gen;

    /// A reply slot whose serving end is dropped unanswered — a job the
    /// engine lost — answers `Shutdown`; an answered slot is not
    /// overwritten by the drop.
    #[test]
    fn a_reply_slot_dropped_unanswered_reads_shutdown() {
        let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 1 });
        let ticket = |slot| Ticket { slot, shared: Arc::clone(&engine.shared) };
        let (tx, slot) = reply_slot();
        drop(tx);
        assert_eq!(ticket(slot).wait().err(), Some(EngineError::Shutdown));

        let (mut tx, slot) = reply_slot();
        let answered = ticket(slot);
        tx.send(Ok(OpOutput::Edges(vec![1.0])));
        drop(tx);
        let got = answered.wait_edges();
        assert_eq!(got, Ok(vec![1.0]), "an answered slot is not overwritten by the drop");
    }

    /// Four blocking clients on a two-permit engine: the callers that
    /// serve inline and the ones that serve the queue while they wait share
    /// two launch permits, so no more than two launches ever run at once
    /// (`Shared::release` asserts it in debug builds; an observer samples
    /// it in every profile), and every answer is right.
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
