//! # sparsetir-engine
//!
//! A concurrent, SLO-aware serving front end over the SparseTIR
//! kernel cache. SparseTIR's premise — compile once per sparsity
//! structure, then reuse the composed kernel across many inputs (§2's
//! amortization argument) — is exactly the shape of an inference-serving
//! workload: the adjacency is fixed, requests differ only in their dense
//! feature operands. The [`Engine`] packages that reuse behind a
//! multi-tenant request queue:
//!
//! * **One submission path for every op**: a [`Submission`] wraps an
//!   [`OpRequest`], the one table of served ops — SpMM, SDDMM, the
//!   cross-op fused attention pipeline and the fused GraphSAGE layer step
//!   all submit and answer through the same machinery
//!   ([`Engine::submit`] → [`Ticket`] → [`OpOutput`]). A request is
//!   checked at submit by its kernel's request-shape rule and launched
//!   through its kernel's one entry point, which checks it again. Built via
//!   `Submission::spmm(feat).deadline(d).priority(Priority::Hi)`-style
//!   constructors. A multi-head aggregation is one SpMM submission per
//!   head.
//! * **SLO envelopes**: submissions carry optional deadlines and a
//!   [`Priority`] class. The queue is priority-then-deadline ordered;
//!   admission sheds work with typed [`EngineError::Rejected`] answers
//!   ([`RejectReason`]: full queue, infeasible deadline, already
//!   expired) instead of only blocking, evicting lower-priority queued
//!   work for higher-priority arrivals; a serving caller drops expired
//!   requests unexecuted.
//! * **Cross-op fusion is what the fused ops do**: `FusedAttention` and
//!   `FusedSage` requests always compile their whole pipeline into one
//!   kernel; the multi-launch forms exist only as test oracles in
//!   `sparsetir-kernels`.
//! * **One shared [`Runtime`](sparsetir_ir::exec::Runtime) and one
//!   [`TuneCache`](sparsetir_kernels::tune::TuneCache)** per engine: every
//!   serving thread compiles through the same striped kernel cache and reuses
//!   the same per-`(adjacency, op)` tuning decisions. Only an op whose
//!   launch reads a searched configuration has a decision to cache: SpMM,
//!   whose decision is measured on this engine's runtime
//!   ([`SpmmMeasuredEvaluator::decide`](sparsetir_kernels::tune::SpmmMeasuredEvaluator::decide)
//!   times the whole launch of CSR and two `hyb` configs and keeps CSR
//!   unless a challenger wins by more than a fixed margin). A tuned
//!   submission of any other kind is served exactly like an untuned one.
//! * **One request, one launch**: a serving thread runs each request
//!   through its kernel's entry point, which looks up the compiled kernel
//!   and binds the adjacency, the request's operands and its output
//!   buffer in place as flat slices, so nothing is stacked or split back
//!   ([`EngineStats::bytes_copied`] stays 0). The amortization is §2's:
//!   a kernel compiles once per sparsity structure and request shape, and
//!   every later request hits it. Concurrent requests do not share
//!   launches: a rider of a shared launch cost 0.95–0.99× a solo one, and
//!   under load riders rarely met.
//! * **Served on the threads that wait**: the engine starts no thread.
//!   Callers share [`EngineConfig::workers`] launch permits; a blocking
//!   [`Engine::submit`] serves inline when it can
//!   ([`EngineStats::served_inline`]), and [`Ticket::wait`] serves queue
//!   heads in order until its own answer lands, so a queued request
//!   progresses only while some caller waits or submits.
//! * **Bounded queue with backpressure**: a blocking submit against a
//!   queue at `queue_depth` serves the queue head itself until there is
//!   space (a deadlined one at most until its deadline);
//!   [`Engine::try_submit`] fails fast with [`EngineError::Rejected`]
//!   instead.
//! * **Crash containment**: a panic while serving is caught on the
//!   serving thread and answers its request with [`EngineError::Exec`];
//!   the thread and the engine carry on ([`EngineStats::worker_panics`]
//!   counts the events). [`EngineStats::conserved`] checks, at
//!   quiescence, that every accepted request was answered exactly once.
//! * **Tail-latency observability**: [`EngineStats`] carries a
//!   log-bucketed, lock-free p50/p95/p99 [`LatencyHistogram`],
//!   per-priority served/shed/expired counters ([`PriorityStats`]) and
//!   per-reason shed counters ([`ShedStats`]) alongside the launch and
//!   throughput counters.
//!
//! * **Incremental graph updates with stale-while-retune serving**:
//!   [`Engine::apply_delta`] patches a served [`Adjacency`] with a
//!   [`GraphDelta`] batch of edge inserts/deletes (two-pointer merge in
//!   `sparsetir-smat`, bit-identical to a rebuild), bumping a monotonic
//!   version. While the log2-degree histogram stays within
//!   [`DRIFT_THRESHOLD`] the successor keeps its
//!   predecessor's tuning *anchor* — cached tune decisions keep serving
//!   with no re-tune. Compiled kernels serve the successor at any drift:
//!   a kernel takes `nnz` as a launch parameter, so an update compiles
//!   nothing (a `hyb` config's key lists its buckets). Past the threshold,
//!   stale decisions are pre-seeded under the new anchor (no serving
//!   gap) and one queued retune job, served like a request, re-tunes and
//!   swaps them in ([`EngineStats::retunes_started`]/`retunes_completed`/
//!   `retunes_skipped`/`deltas_applied` count the state machine).
//!
//! The `serving_throughput` and `serving_slo` experiments in
//! `sparsetir-bench` measure this engine's requests/sec and its
//! deadline-hit-rate under overload,
//! `dynamic_graphs` measures incremental-update-vs-rebuild throughput,
//! and `sparsetir-nn`'s serving path drives GraphSAGE inference through
//! it.

#![warn(missing_docs)]

mod engine;
mod op;
mod stats;
mod submission;

pub use engine::{
    Adjacency, Engine, EngineConfig, EngineError, Ticket, DEFAULT_QUEUE_DEPTH, DRIFT_THRESHOLD,
};
pub use op::{OpOutput, OpRequest};
pub use stats::{EngineStats, LatencyHistogram, PriorityStats, ShedStats};
pub use submission::{Priority, RejectReason, Submission};
// The delta type `apply_delta` consumes, re-exported so serving callers
// need not depend on `sparsetir-smat` directly.
pub use sparsetir_smat::prelude::GraphDelta;
