//! The serving engine: a bounded multi-producer request queue drained by
//! a worker pool that folds fingerprint-compatible requests of *any*
//! batchable [`SparseOp`] — SpMM, SDDMM, fused attention — into single
//! kernel launches through one generic request path (SpMM riders widen
//! one kernel run; SDDMM and attention riders each run the one-head
//! kernel, the launch's fixed costs shared).
//!
//! Since the SLO redesign the queue is priority-then-deadline ordered,
//! admission sheds infeasible or expired work with typed
//! [`EngineError::Rejected`] answers instead of only blocking, the drain
//! loop drops already-expired requests without executing them, and an
//! optional adaptive batch window trades a bounded wait for wider
//! batches when arrivals predict more compatible riders.

use crate::stats::{EngineStats, StatsInner};
use crate::submission::{Priority, RejectReason, Submission};
use sparsetir_autotune::{
    measured_spmm_key, MeasureOpts, SparsityFingerprint, SpmmMeasuredEvaluator, TuneCache, TuneKey,
};
use sparsetir_ir::exec::Runtime;
use sparsetir_kernels::prelude::{
    bytes_copied_on_thread, AttnHead, FusedAttentionOp, FusedSageOp, SddmmOp, SparseOp, SpmmConfig,
    SpmmOp,
};
use sparsetir_smat::prelude::{Csr, Dense, GraphDelta};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default bound on the request queue (the backpressure knob).
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Default [`EngineConfig::drift_threshold`]: how far the log2-degree
/// histogram may drift (L1 distance over row count — a single moved row
/// contributes 2) before [`Engine::apply_delta`] re-anchors the tuning
/// identity and triggers a background retune. At `0.1`, five percent of
/// rows changing degree bin re-tunes; anything less keeps serving the
/// existing decisions.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.1;

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

/// A shareable, fingerprinted adjacency: the unit of kernel reuse and
/// request batching. The fingerprint is a content hash over the full CSR
/// (shape, structure and values), computed once at construction, so the
/// engine can group same-adjacency requests in O(1) per request —
/// cloning an `Adjacency` is an `Arc` bump.
///
/// Two requests batch together only when their fingerprints *and* their
/// matrix dimensions match; distinct matrices colliding in the 64-bit
/// hash is the usual negligible-probability caveat.
#[derive(Debug, Clone)]
pub struct Adjacency {
    csr: Arc<Csr>,
    fingerprint: u64,
    /// Structural sparsity summary of *this* matrix, precomputed so the
    /// tuned path never rescans the matrix per batch.
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
    /// versioned fingerprint of the issue: the version says *how many*
    /// updates happened, the anchor says whether tuning identity changed.
    version: u64,
}

impl Adjacency {
    /// Fingerprint and wrap a CSR adjacency for serving.
    #[must_use]
    pub fn new(csr: Csr) -> Adjacency {
        let mut h = DefaultHasher::new();
        csr.rows().hash(&mut h);
        csr.cols().hash(&mut h);
        csr.indptr().hash(&mut h);
        csr.indices().hash(&mut h);
        for v in csr.values() {
            v.to_bits().hash(&mut h);
        }
        let sparsity = Arc::new(SparsityFingerprint::of(&csr));
        Adjacency {
            csr: Arc::new(csr),
            fingerprint: h.finish(),
            anchor: Arc::clone(&sparsity),
            sparsity,
            version: 0,
        }
    }

    /// The wrapped matrix.
    #[must_use]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The content fingerprint requests are batched by.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
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

    /// True when `other` may share a batched kernel launch with `self`.
    fn batches_with(&self, other: &Adjacency) -> bool {
        self.fingerprint == other.fingerprint
            && self.csr.rows() == other.csr.rows()
            && self.csr.cols() == other.csr.cols()
            && self.csr.nnz() == other.csr.nnz()
    }
}

/// One request for any served op, as queued by the generic submit path.
/// The variant carries exactly the op's [`SparseOp::Operands`]. Build
/// through [`Submission`]'s per-op constructors for the serving surface;
/// a bare `OpRequest` converts `Into<Submission>` with default options.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum OpRequest {
    /// SpMM `A · X`: one dense feature operand.
    Spmm(Dense),
    /// SDDMM `A ⊙ (X · Y)`: the dense operand pair.
    Sddmm((Dense, Dense)),
    /// Cross-op fused attention pipeline (SDDMM → edge-softmax → SpMM in
    /// one kernel): one `(Q, Kᵀ, V)` triple per head.
    FusedAttention(Vec<AttnHead>),
    /// Cross-op fused GraphSAGE layer step (gather → normalize → matmul
    /// in one kernel): the `(X, W)` operand pair.
    FusedSage((Dense, Dense)),
}

impl OpRequest {
    /// The op kind tag this request routes to (`"spmm"`, `"sddmm"`,
    /// `"fused_attention"`, `"fused_sage"`) — useful for logging and
    /// metrics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            OpRequest::Spmm(_) => SpmmOp::kind(),
            OpRequest::Sddmm(_) => SddmmOp::kind(),
            OpRequest::FusedAttention(_) => FusedAttentionOp::kind(),
            OpRequest::FusedSage(_) => FusedSageOp::kind(),
        }
    }

    /// Shape-validate against the adjacency via the op's own contract.
    fn validate(&self, adj: &Adjacency) -> Result<(), EngineError> {
        match self {
            OpRequest::Spmm(x) => SpmmOp::validate(adj.csr(), x),
            OpRequest::Sddmm(pair) => SddmmOp::validate(adj.csr(), pair),
            OpRequest::FusedAttention(heads) => FusedAttentionOp::validate(adj.csr(), heads),
            OpRequest::FusedSage(pair) => FusedSageOp::validate(adj.csr(), pair),
        }
        .map_err(EngineError::Shape)
    }

    /// The op-level batching contract, lifted to the request enum: same
    /// kind, and the op's [`SparseOp::can_batch`] agrees.
    fn can_batch_with(&self, other: &OpRequest) -> bool {
        match (self, other) {
            (OpRequest::Spmm(a), OpRequest::Spmm(b)) => SpmmOp::can_batch(a, b),
            (OpRequest::Sddmm(a), OpRequest::Sddmm(b)) => SddmmOp::can_batch(a, b),
            (OpRequest::FusedAttention(a), OpRequest::FusedAttention(b)) => {
                FusedAttentionOp::can_batch(a, b)
            }
            (OpRequest::FusedSage(a), OpRequest::FusedSage(b)) => FusedSageOp::can_batch(a, b),
            _ => false,
        }
    }
}

/// The result of any served op — the one shape of output handling every
/// ticket answers with. Typed accessors convert back to the op's native
/// result.
#[derive(Debug, Clone)]
pub enum OpOutput {
    /// A dense matrix (SpMM, fused GraphSAGE).
    Dense(Dense),
    /// Per-non-zero edge values (SDDMM).
    Edges(Vec<f32>),
    /// One dense matrix per head (fused attention).
    Heads(Vec<Dense>),
}

impl OpOutput {
    fn variant(&self) -> &'static str {
        match self {
            OpOutput::Dense(_) => "Dense",
            OpOutput::Edges(_) => "Edges",
            OpOutput::Heads(_) => "Heads",
        }
    }

    /// The op kinds that produce an output variant — so a mismatch error
    /// names both sides' ops, not just the variant tags.
    fn kinds_of(variant: &'static str) -> &'static str {
        match variant {
            "Dense" => "spmm|fused_sage",
            "Edges" => "sddmm",
            _ => "fused_attention",
        }
    }

    fn mismatch(expected: &'static str, got: &OpOutput) -> EngineError {
        EngineError::Output(format!(
            "expected {expected} ({}), got {} ({})",
            OpOutput::kinds_of(expected),
            got.variant(),
            OpOutput::kinds_of(got.variant()),
        ))
    }

    /// The dense SpMM result.
    ///
    /// # Errors
    /// [`EngineError::Output`] when this output belongs to a different
    /// op; the message carries the expected and actual variant + op
    /// kinds.
    pub fn into_dense(self) -> Result<Dense, EngineError> {
        match self {
            OpOutput::Dense(d) => Ok(d),
            other => Err(OpOutput::mismatch("Dense", &other)),
        }
    }

    /// The per-non-zero SDDMM result.
    ///
    /// # Errors
    /// [`EngineError::Output`] when this output belongs to a different
    /// op; the message carries the expected and actual variant + op
    /// kinds.
    pub fn into_edges(self) -> Result<Vec<f32>, EngineError> {
        match self {
            OpOutput::Edges(v) => Ok(v),
            other => Err(OpOutput::mismatch("Edges", &other)),
        }
    }

    /// The per-head fused-attention result.
    ///
    /// # Errors
    /// [`EngineError::Output`] when this output belongs to a different
    /// op; the message carries the expected and actual variant + op
    /// kinds.
    pub fn into_heads(self) -> Result<Vec<Dense>, EngineError> {
        match self {
            OpOutput::Heads(v) => Ok(v),
            other => Err(OpOutput::mismatch("Heads", &other)),
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bound on queued (not yet dispatched) requests — the backpressure
    /// knob: blocking submits wait for space (at most until their
    /// deadline), `try_submit*` fails with [`EngineError::Rejected`]
    /// (`QueueFull`).
    pub queue_depth: usize,
    /// Most requests folded into one batched kernel launch; `1` disables
    /// batching (every request runs alone — the unbatched baseline the
    /// `serving_throughput` experiment compares against).
    pub max_batch: usize,
    /// Adaptive batch window: after draining a batch that still has
    /// rider room, a worker with an otherwise-empty queue waits up to
    /// this long for more compatible arrivals before firing — but only
    /// while arrivals are recent, and never when the wait would push the
    /// batch's most urgent deadline past feasibility. `None` (the
    /// default) keeps the legacy greedy drain: fire immediately with
    /// whatever is queued.
    pub batch_window: Option<Duration>,
    /// Degree-histogram drift (see [`SparsityFingerprint::drift`]) above
    /// which [`Engine::apply_delta`] re-anchors the adjacency's tuning
    /// identity and schedules a background retune. At or below the
    /// threshold the old anchor is kept: cached tune decisions and
    /// compiled kernels keep serving unchanged. Defaults to
    /// [`DEFAULT_DRIFT_THRESHOLD`].
    pub drift_threshold: f64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            max_batch: 8,
            batch_window: None,
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
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
    /// Admission order, for stable FIFO among equal (priority, deadline)
    /// keys — default-option submissions order exactly like the pre-SLO
    /// queue.
    seq: u64,
    reply: mpsc::Sender<Result<OpOutput, EngineError>>,
}

struct QueueState {
    queue: VecDeque<Job>,
    /// Crash-safety test hook (see [`Engine::inject_worker_panic`]):
    /// each pending injection makes one draining worker panic while it
    /// holds the queue lock.
    inject_panics: usize,
    /// Occupancy test hook (see [`Engine::stall_worker`]): each pending
    /// gate parks one draining worker until its guard is dropped.
    stalls: Vec<mpsc::Receiver<()>>,
    /// Monotonic admission counter feeding [`Job::seq`].
    seq: u64,
    shutdown: bool,
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
    /// *first* batches of one adjacency would each pay the full search.
    tune_flight: Mutex<()>,
    /// Engine birth instant: the epoch for [`Shared::last_arrival_ns`].
    t0: Instant,
    /// Nanoseconds-since-`t0` of the most recent admission — the
    /// adaptive batch window's arrival-rate signal (a stale value means
    /// waiting for riders is pointless).
    last_arrival_ns: AtomicU64,
    /// Every tune decision taken under an anchor fingerprint, with the
    /// width it was searched at — the worklist a background retune replays
    /// when [`Engine::apply_delta`] re-anchors past the drift threshold.
    retune_registry: Mutex<HashMap<SparsityFingerprint, Vec<RetuneRecord>>>,
    /// In-flight background retune threads; joined by
    /// [`Engine::quiesce_retunes`] and at drop.
    retune_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stats: StatsInner,
}

/// One tune decision to replay on re-anchor: the cache key it lives
/// under and the feature width it was timed at (the replay times a seeded
/// operand of that width on the updated matrix).
#[derive(Clone)]
struct RetuneRecord {
    key: TuneKey,
    feat: usize,
}

impl Shared {
    fn note_arrival(&self) {
        self.last_arrival_ns.store(self.t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// True when something was admitted within the last `horizon`.
    fn arrival_recent(&self, horizon: Duration) -> bool {
        let last = self.last_arrival_ns.load(Ordering::Relaxed);
        self.t0.elapsed().saturating_sub(Duration::from_nanos(last)) <= horizon
    }
}

/// Pending result of any submitted request: the one generic ticket every
/// op answers through. [`Ticket::wait`] yields the unified [`OpOutput`];
/// the `wait_*` conveniences convert to the op's native result.
#[derive(Debug)]
#[must_use = "wait() on the ticket to receive the result"]
pub struct Ticket {
    rx: mpsc::Receiver<Result<OpOutput, EngineError>>,
}

impl Ticket {
    /// Block until the engine answers.
    ///
    /// # Errors
    /// Propagates the worker-side error, or [`EngineError::Shutdown`]
    /// when the engine died before answering.
    pub fn wait(self) -> Result<OpOutput, EngineError> {
        self.rx.recv().unwrap_or(Err(EngineError::Shutdown))
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
/// served [`SparseOp`] from any number of client threads through one
/// generic submit path, and batches concurrent requests that share an
/// [`Adjacency`] fingerprint (and satisfy the op's batching contract)
/// into single kernel launches.
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
    /// Start an engine with `config.workers` worker threads and a fresh
    /// kernel cache.
    #[must_use]
    pub fn new(config: EngineConfig) -> Engine {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                inject_panics: 0,
                stalls: Vec::new(),
                seq: 0,
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            config: config.clone(),
            runtime: Arc::new(Runtime::new()),
            tune_cache: TuneCache::new(),
            tune_flight: Mutex::new(()),
            t0: Instant::now(),
            last_arrival_ns: AtomicU64::new(0),
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
    /// submission outranks queued work, which it evicts instead).
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
    ///   fingerprint. Every tune decision recorded under the old anchor is
    ///   *pre-seeded* under the new anchor's keys (stale but correct — the
    ///   matrix changed shape-compatibly, so the old schedule still runs),
    ///   then ONE background thread replays the tuning searches against
    ///   the updated matrix and atomically overwrites each seed in the
    ///   [`TuneCache`] as it lands. Requests never observe a gap: they hit
    ///   either the stale or the fresh decision. With nothing tuned under
    ///   the old anchor there is nothing to replay: the pass counts as
    ///   started and completed on the spot and no thread is spawned.
    ///
    /// Either way the successor's launches run on the kernels the
    /// predecessor's launches compiled: a served kernel keys on `rows / cols` and
    /// the request shape and binds `nnz` at launch, so only a `hyb` config,
    /// whose key lists its buckets, can compile anew. The predecessor
    /// adjacency stays fully servable (requests holding it batch and
    /// execute as before) — callers swap to the successor at their own
    /// pace.
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
        if drift <= shared.config.drift_threshold {
            next.anchor = Arc::clone(&adj.anchor);
            shared.stats.retunes_skipped.fetch_add(1, Ordering::Relaxed);
            return Ok(next);
        }
        // Re-anchor: move the old anchor's tune records to the new one,
        // seeding each new key with the stale decision so lookups keep
        // hitting while the background pass runs.
        let mut work = Vec::new();
        let mut reg = lock(&shared.retune_registry);
        if let Some(records) = reg.remove(&*adj.anchor) {
            let entry = reg.entry((*next.anchor).clone()).or_default();
            for rec in records {
                let mut key = rec.key.clone();
                key.fingerprint = (*next.anchor).clone();
                if entry.iter().any(|r| r.key == key) {
                    continue;
                }
                if let Some(stale) = shared.tune_cache.peek(&rec.key) {
                    shared.tune_cache.insert(key.clone(), stale);
                }
                let rec = RetuneRecord { key, ..rec };
                work.push(rec.clone());
                entry.push(rec);
            }
        }
        drop(reg);
        shared.stats.retunes_started.fetch_add(1, Ordering::Relaxed);
        if work.is_empty() {
            shared.stats.retunes_completed.fetch_add(1, Ordering::Relaxed);
            return Ok(next);
        }
        let csr = Arc::clone(&next.csr);
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name("sparsetir-retune".into())
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    for rec in work {
                        let opts = MeasureOpts::default();
                        let tuner =
                            SpmmMeasuredEvaluator::new(&shared.runtime, &csr, rec.feat, opts);
                        shared.tune_cache.insert(rec.key, tuner.decide());
                    }
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
    /// holding neither the lock nor a job — until the returned guard is
    /// dropped. Requests submitted meanwhile pile up behind it exactly as
    /// behind a long-running kernel, for as long as the test needs and
    /// however fast kernels run (with `workers: 1`, nothing is served
    /// until the drop).
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
        req.validate(adj)?;
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        let job = Job {
            adj: adj.clone(),
            req,
            enqueued: now,
            deadline: opts.deadline.map(|d| now + d),
            priority: opts.priority,
            tune: opts.tune,
            seq: 0,
            reply: tx,
        };
        self.push(job, block)?;
        Ok(Ticket { rx })
    }

    fn push(&self, job: Job, block: bool) -> Result<(), EngineError> {
        let mut evicted = None;
        let result = self.admit(job, block, &mut evicted);
        // Answer the eviction victim outside the queue lock; its ticket
        // may already be dropped.
        if let Some(v) = evicted {
            self.shared.stats.shed(RejectReason::QueueFull, v.priority);
            let _ = v.reply.send(Err(EngineError::Rejected { reason: RejectReason::QueueFull }));
        }
        result
    }

    /// The admission controller: find (or free) a queue slot, shed what
    /// cannot be served in time, and insert in priority-then-deadline
    /// order.
    fn admit(
        &self,
        mut job: Job,
        block: bool,
        evicted: &mut Option<Job>,
    ) -> Result<(), EngineError> {
        let shared = &self.shared;
        let depth = shared.config.queue_depth.max(1);
        let mut st = lock(&shared.state);
        loop {
            if st.shutdown {
                return Err(EngineError::Shutdown);
            }
            let now = Instant::now();
            if job.deadline.is_some_and(|dl| dl <= now) {
                shared.stats.shed(RejectReason::Expired, job.priority);
                return Err(EngineError::Rejected { reason: RejectReason::Expired });
            }
            if st.queue.len() < depth {
                break;
            }
            // Full queue: a higher-priority submission takes the slot of
            // the queue's lowest-ranked entry instead of waiting behind
            // it — this is what keeps Hi traffic unstarvable under a
            // saturating Lo flood.
            if st.queue.back().is_some_and(|back| back.priority < job.priority) {
                *evicted = st.queue.pop_back();
                break;
            }
            if !block {
                shared.stats.shed(RejectReason::QueueFull, job.priority);
                return Err(EngineError::Rejected { reason: RejectReason::QueueFull });
            }
            st = match job.deadline {
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
        st.seq += 1;
        job.seq = st.seq;
        let pos = insert_pos(&st.queue, &job);
        // Deadline-feasibility check: with `pos` requests served first
        // at roughly the op's estimated execution time each (single
        // worker, no batching assumed — a deliberately conservative
        // model), would this request still answer in time? Shed now
        // rather than let it expire in the queue. No estimate yet (cold
        // kind) admits optimistically.
        if let Some(dl) = job.deadline {
            let est = shared.stats.exec_estimate_ns(job.req.kind());
            if est > 0 {
                let eta = Duration::from_nanos(est.saturating_mul(pos as u64 + 1));
                if Instant::now() + eta > dl {
                    shared.stats.shed(RejectReason::DeadlineInfeasible, job.priority);
                    return Err(EngineError::Rejected { reason: RejectReason::DeadlineInfeasible });
                }
            }
        }
        st.queue.insert(pos, job);
        let qdepth = st.queue.len();
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        shared.stats.queue_high_water.fetch_max(qdepth, Ordering::Relaxed);
        shared.note_arrival();
        drop(st);
        // notify_all, not notify_one: a worker parked in the adaptive
        // batch window also consumes wakeups, so a single notify could
        // be swallowed by a window-waiter while an idle worker sleeps.
        self.shared.not_empty.notify_all();
        Ok(())
    }
}

/// Queue ordering: priority descending, then deadline ascending
/// (deadline-less after deadlined within a class), then admission order.
/// Default-option submissions therefore keep exact FIFO order — the
/// pre-SLO queue discipline.
fn orders_before(a: &Job, b: &Job) -> bool {
    if a.priority != b.priority {
        return a.priority > b.priority;
    }
    match (a.deadline, b.deadline) {
        (Some(x), Some(y)) if x != y => x < y,
        (Some(_), None) => true,
        (None, Some(_)) => false,
        _ => a.seq < b.seq,
    }
}

/// Where `job` slots into the ordered queue (after every entry it does
/// not outrank — stable for ties).
fn insert_pos(queue: &VecDeque<Job>, job: &Job) -> usize {
    queue.partition_point(|q| !orders_before(job, q))
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

/// The engine-side face of a servable op: how to pull this op's typed
/// operands out of the [`OpRequest`] enum and wrap its output back into
/// the unified [`OpOutput`]. Everything else — batching, execution —
/// comes from the generic [`SparseOp`] contract, so adding a served op is
/// one enum variant plus one impl of this glue.
trait Served: SparseOp {
    fn extract(req: OpRequest) -> Self::Operands;
    fn wrap(out: Self::Output) -> OpOutput;

    /// The configuration a tuned batch headed by `head` launches under.
    /// Only an op whose launch reads a searched configuration has a
    /// decision to take (SpMM overrides this with [`tuned_spmm_config`]);
    /// every other op launches under its default and never touches the
    /// tune cache.
    fn tuned(_shared: &Shared, _adj: &Adjacency, _head: &Self::Operands) -> Self::Config {
        Self::Config::default()
    }
}

impl Served for SpmmOp {
    fn extract(req: OpRequest) -> Dense {
        match req {
            OpRequest::Spmm(x) => x,
            _ => unreachable!("kind-matched batch"),
        }
    }

    fn wrap(out: Dense) -> OpOutput {
        OpOutput::Dense(out)
    }

    fn tuned(shared: &Shared, adj: &Adjacency, head: &Dense) -> SpmmConfig {
        tuned_spmm_config(shared, adj, head)
    }
}

impl Served for SddmmOp {
    fn extract(req: OpRequest) -> (Dense, Dense) {
        match req {
            OpRequest::Sddmm(pair) => pair,
            _ => unreachable!("kind-matched batch"),
        }
    }

    fn wrap(out: Vec<f32>) -> OpOutput {
        OpOutput::Edges(out)
    }
}

impl Served for FusedAttentionOp {
    fn extract(req: OpRequest) -> Vec<AttnHead> {
        match req {
            OpRequest::FusedAttention(heads) => heads,
            _ => unreachable!("kind-matched batch"),
        }
    }

    fn wrap(out: Vec<Dense>) -> OpOutput {
        OpOutput::Heads(out)
    }
}

impl Served for FusedSageOp {
    fn extract(req: OpRequest) -> (Dense, Dense) {
        match req {
            OpRequest::FusedSage(pair) => pair,
            _ => unreachable!("kind-matched batch"),
        }
    }

    fn wrap(out: Dense) -> OpOutput {
        OpOutput::Dense(out)
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // A panic anywhere in a tick — including the injected lock-held
        // panic of the crash-safety tests — must not kill the worker:
        // catch it, count it, keep draining. The queue mutex recovers
        // from the poisoning via `lock`.
        match catch_unwind(AssertUnwindSafe(|| worker_tick(shared))) {
            Ok(true) => {}
            Ok(false) => return,
            Err(_) => {
                shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One drain-and-serve iteration; `false` means shutdown.
fn worker_tick(shared: &Shared) -> bool {
    let mut expired = Vec::new();
    let batch = {
        let mut st = lock(&shared.state);
        loop {
            if st.inject_panics > 0 {
                st.inject_panics -= 1;
                panic!("injected worker panic (crash-safety test hook)")
            }
            if let Some(gate) = st.stalls.pop() {
                drop(st);
                // Parked until the test drops its `WorkerStall`.
                let _ = gate.recv();
                st = lock(&shared.state);
                continue;
            }
            // Expired-at-drain requests are swept out before dispatch
            // and answered Expired — their operands never reach
            // `execute_batch_on`.
            sweep_expired(&mut st.queue, &mut expired);
            if let Some(first) = st.queue.pop_front() {
                // Greedily fold queued compatible requests (same
                // adjacency fingerprint, same op, op-level can_batch)
                // into this dispatch, up to max_batch.
                let mut batch = vec![first];
                drain_compatible(&mut st.queue, &mut batch, shared.config.max_batch);
                if let Some(window) = shared.config.batch_window {
                    drop(hold_for_riders(shared, st, &mut batch, &mut expired, window));
                }
                break batch;
            }
            if !expired.is_empty() {
                // Nothing left to serve, but sweep results to deliver.
                break Vec::new();
            }
            if st.shutdown {
                return false;
            }
            st = shared.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    };
    // Space was freed: wake blocked submitters.
    shared.not_full.notify_all();
    answer_expired(shared, expired);
    if !batch.is_empty() {
        serve_batch(shared, batch);
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
    for job in expired {
        shared.stats.record_latency(job.enqueued.elapsed().as_nanos() as u64);
        shared.stats.expire(job.priority);
        let _ = job.reply.send(Err(EngineError::Rejected { reason: RejectReason::Expired }));
    }
}

/// Pull every queued job batch-compatible with the batch out of the
/// queue, preserving the relative order of everything else.
fn drain_compatible(queue: &mut VecDeque<Job>, batch: &mut Vec<Job>, max_batch: usize) {
    if max_batch <= 1 {
        return;
    }
    let mut i = 0;
    while i < queue.len() && batch.len() < max_batch {
        // Pairwise against the whole batch, not just the head: batching
        // contracts need not be transitive (a 0-head fused-attention
        // request rides with any shape, but must not bridge two
        // incompatible shape groups into one launch).
        let job = &queue[i];
        let compatible = batch[0].adj.batches_with(&job.adj)
            && batch.iter().all(|b| b.req.can_batch_with(&job.req));
        if compatible {
            if let Some(job) = queue.remove(i) {
                batch.push(job);
            }
        } else {
            i += 1;
        }
    }
}

/// The adaptive batch window: with rider room left and an otherwise
/// drained queue, park briefly for more compatible arrivals — but fire
/// immediately under deadline pressure (the wait plus the op's estimated
/// execution must still fit the batch's most urgent deadline), when
/// arrivals have gone quiet, or when incompatible work is already
/// waiting behind us.
fn hold_for_riders<'a>(
    shared: &Shared,
    mut st: MutexGuard<'a, QueueState>,
    batch: &mut Vec<Job>,
    expired: &mut Vec<Job>,
    window: Duration,
) -> MutexGuard<'a, QueueState> {
    let give_up = Instant::now() + window;
    let est = Duration::from_nanos(shared.stats.exec_estimate_ns(batch[0].req.kind()));
    loop {
        if batch.len() >= shared.config.max_batch.max(1) || !st.queue.is_empty() || st.shutdown {
            break;
        }
        let now = Instant::now();
        if let Some(urgent) = batch.iter().filter_map(|j| j.deadline).min() {
            if urgent.saturating_duration_since(now) <= window + est {
                break;
            }
        }
        if !shared.arrival_recent(window.max(Duration::from_millis(1)) * 8) {
            break;
        }
        let left = give_up.saturating_duration_since(now);
        if left.is_zero() {
            break;
        }
        let (guard, timeout) =
            shared.not_empty.wait_timeout(st, left).unwrap_or_else(PoisonError::into_inner);
        st = guard;
        sweep_expired(&mut st.queue, expired);
        drain_compatible(&mut st.queue, batch, shared.config.max_batch);
        if timeout.timed_out() {
            break;
        }
    }
    st
}

/// One dispatch: route the kind-matched batch to its op's generic serve
/// path.
fn serve_batch(shared: &Shared, batch: Vec<Job>) {
    match &batch[0].req {
        OpRequest::Spmm(_) => serve_as::<SpmmOp>(shared, batch),
        OpRequest::Sddmm(_) => serve_as::<SddmmOp>(shared, batch),
        OpRequest::FusedAttention(_) => serve_as::<FusedAttentionOp>(shared, batch),
        OpRequest::FusedSage(_) => serve_as::<FusedSageOp>(shared, batch),
    }
}

/// The tuned SpMM configuration for one adjacency: the engine-owned
/// [`TuneCache`] memoizes `autotune`'s measured decision
/// ([`SpmmMeasuredEvaluator::decide`]: the whole launch of each shortlist
/// config timed on the engine's own runtime and the batch head's operand,
/// CSR kept unless a challenger beats it by more than
/// `autotune::CHALLENGER_MARGIN`) per sparsity fingerprint, so only the
/// first batch on a new adjacency pays it. The decision is keyed on the
/// adjacency alone — request widths vary per batch, so it is timed at the
/// triggering request's width and reused for all widths (the §2
/// amortization trade).
fn tuned_spmm_config(shared: &Shared, adj: &Adjacency, head: &Dense) -> SpmmConfig {
    // Keyed on the *anchor*, not the matrix's own fingerprint: a
    // below-threshold `apply_delta` successor shares its predecessor's
    // anchor, so its batches hit the predecessor's cached decision —
    // stale-while-retune serving in the hit path.
    let key = measured_spmm_key(&adj.anchor);
    // Double-checked single flight: serve hits without the guard, and
    // take it only on a miss — TuneCache computes outside its own lock,
    // so concurrent first batches of one adjacency would otherwise each
    // run the full search, while a global guard on the hit path would
    // serialize unrelated adjacencies behind a slow search.
    if let Some(config) = shared.tune_cache.get(&key) {
        return config;
    }
    let _flight = lock(&shared.tune_flight);
    let (config, hit) = shared.tune_cache.get_or_insert_with(key.clone(), || {
        let opts = MeasureOpts::default();
        SpmmMeasuredEvaluator::with_operand(&shared.runtime, adj.csr(), head, opts).decide()
    });
    if !hit {
        // First decision under this anchor: remember how to redo it, so a
        // future re-anchor can replay the search against the updated
        // matrix in the background.
        let mut reg = lock(&shared.retune_registry);
        let entry = reg.entry(key.fingerprint.clone()).or_default();
        if !entry.iter().any(|r| r.key == key) {
            entry.push(RetuneRecord { key, feat: head.cols() });
        }
    }
    config
}

/// Serve one kind-matched batch through the op's generic contract:
/// config lookup → one `execute_batch_on` launch → per-request replies. A
/// panicking kernel answers every rider with [`EngineError::Exec`]
/// instead of killing the worker.
fn serve_as<O: Served>(shared: &Shared, batch: Vec<Job>) {
    let adj = batch[0].adj.clone();
    // The batch head decides the tuning mode for its riders (one launch,
    // one configuration).
    let tune = batch[0].tune;
    shared.stats.record_batch(O::kind(), batch.len());
    let width = batch.len().max(1) as u64;
    let mut replies = Vec::with_capacity(batch.len());
    let mut reqs = Vec::with_capacity(batch.len());
    for job in batch {
        replies.push((job.enqueued, job.priority, job.reply));
        reqs.push(O::extract(job.req));
    }
    // The config lookup sits inside the catch: a panicking tuning search
    // must answer its riders with `Exec` too, not drop their replies.
    let started = Instant::now();
    // Sample the thread-local copy counter around the launch: the worker
    // thread runs the whole batch, so the delta is exactly the bytes the
    // launch memcpy'd for these riders (0 on the view paths).
    let copied_before = bytes_copied_on_thread();
    let result = catch_unwind(AssertUnwindSafe(|| {
        // A tuned decision is timed on the batch head's operand.
        let config = if tune { O::tuned(shared, &adj, &reqs[0]) } else { O::Config::default() };
        O::execute_batch_on(&shared.runtime, adj.csr(), &reqs, &config)
    }));
    shared
        .stats
        .bytes_copied
        .fetch_add(bytes_copied_on_thread().saturating_sub(copied_before), Ordering::Relaxed);
    match result {
        Ok(Ok(outs)) => {
            // Per-request execution estimate for admission: the batch's
            // wall time amortized over its riders.
            shared.stats.record_exec(O::kind(), started.elapsed().as_nanos() as u64 / width);
            for ((enqueued, priority, reply), out) in replies.into_iter().zip(outs) {
                finish(shared, enqueued, priority, true, || reply.send(Ok(O::wrap(out))).is_ok());
            }
        }
        Ok(Err(e)) => {
            answer_error(shared, replies, &EngineError::Exec(e.to_string()));
        }
        Err(panic) => {
            shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked while executing the batch".to_string());
            answer_error(shared, replies, &EngineError::Exec(format!("worker panic: {msg}")));
        }
    }
}

type Reply = (Instant, Priority, mpsc::Sender<Result<OpOutput, EngineError>>);

fn answer_error(shared: &Shared, replies: Vec<Reply>, err: &EngineError) {
    for (enqueued, priority, reply) in replies {
        let err = err.clone();
        finish(shared, enqueued, priority, false, || reply.send(Err(err)).is_ok());
    }
}

/// Record latency + outcome and deliver the reply (a client that dropped
/// its ticket is not an error).
fn finish(
    shared: &Shared,
    enqueued: Instant,
    priority: Priority,
    ok: bool,
    send: impl FnOnce() -> bool,
) {
    shared.stats.record_latency(enqueued.elapsed().as_nanos() as u64);
    if ok {
        shared.stats.serve(priority);
    } else {
        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
    }
    let _ = send();
}
