//! Engine serving statistics: lock-free counters updated by the threads
//! that submit and serve, snapshotted into [`EngineStats`] on demand. Since the SLO
//! redesign this includes a log-bucketed latency histogram (p50/p95/p99
//! without locks on the serving path), per-[`Priority`] outcome
//! counters, per-[`RejectReason`] shed counters, and an EWMA execution-
//! time estimate per op kind that feeds the admission controller's
//! deadline-feasibility check.

use crate::submission::{Priority, RejectReason};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Every op kind the engine can dispatch. The per-kind execution
/// estimate is a fixed array of atomics (no locks on the serving path); an
/// unknown kind tag has no estimate.
const OP_KINDS: [&str; 4] = ["spmm", "sddmm", "fused_attention", "fused_sage"];

/// Power-of-two latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` ns, which covers the full `u64` nanosecond range.
const LATENCY_BUCKETS: usize = 64;

/// Floor log₂ bucket index of a nanosecond sample (0 ns records as 1 ns).
fn latency_bucket(ns: u64) -> usize {
    63 - ns.max(1).leading_zeros() as usize
}

/// Lock-free log₂-bucketed latency histogram (the serving-side half of
/// [`LatencyHistogram`]).
struct LatencyHistInner {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistInner {
    fn default() -> LatencyHistInner {
        LatencyHistInner { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistInner {
    fn record(&self, ns: u64) {
        self.buckets[latency_bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Per-priority outcome counters (one slot per [`Priority::ALL`] entry).
#[derive(Default)]
struct PriorityCounters {
    served: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
}

/// Atomic counter block shared by the threads that submit and serve.
#[derive(Default)]
pub(crate) struct StatsInner {
    pub submitted: AtomicU64,
    pub served_inline: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub rejected: AtomicU64,
    pub evicted: AtomicU64,
    pub expired: AtomicU64,
    pub batches: AtomicU64,
    pub queue_high_water: AtomicUsize,
    pub latency_ns_sum: AtomicU64,
    pub latency_ns_max: AtomicU64,
    pub worker_panics: AtomicU64,
    pub bytes_copied: AtomicU64,
    pub deltas_applied: AtomicU64,
    pub retunes_started: AtomicU64,
    pub retunes_completed: AtomicU64,
    pub retunes_skipped: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_infeasible: AtomicU64,
    shed_expired: AtomicU64,
    latency_hist: LatencyHistInner,
    per_priority: [PriorityCounters; 3],
    /// EWMA of per-request execution time per op kind (ns); 0 = no
    /// sample yet. Feeds the admission controller's feasibility check.
    exec_est_ns: [AtomicU64; OP_KINDS.len()],
}

impl StatsInner {
    pub fn record_latency(&self, ns: u64) {
        self.latency_ns_sum.fetch_add(ns, Ordering::Relaxed);
        self.latency_ns_max.fetch_max(ns, Ordering::Relaxed);
        self.latency_hist.record(ns);
    }

    /// Count one successfully answered request of `priority`.
    pub fn serve(&self, priority: Priority) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.per_priority[priority.slot()].served.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one admission-time rejection (`reason` tags the shed
    /// counter; `rejected` stays the headline total).
    pub fn shed(&self, reason: RejectReason, priority: Priority) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        let counter = match reason {
            RejectReason::QueueFull => &self.shed_queue_full,
            RejectReason::DeadlineInfeasible => &self.shed_infeasible,
            RejectReason::Expired => &self.shed_expired,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.per_priority[priority.slot()].shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one drain-time expiry (the request was queued, then dropped
    /// unexecuted because its deadline passed).
    pub fn expire(&self, priority: Priority) {
        self.expired.fetch_add(1, Ordering::Relaxed);
        self.per_priority[priority.slot()].expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one measured per-request execution time into the op kind's
    /// EWMA estimate (α = 1/4). A `compare_exchange_weak` loop replaces
    /// the old load-then-blind-store: under concurrent serving threads the blind
    /// store silently dropped whole updates (both racers fold from the
    /// same `old`, the slower store erasing the faster one's sample),
    /// skewing the estimate the admission controller's
    /// `DeadlineInfeasible` decisions ride on. With CAS every sample is
    /// folded in exactly once, in *some* serialization order.
    pub fn record_exec(&self, kind: &str, ns: u64) {
        if let Some(slot) = OP_KINDS.iter().position(|k| *k == kind) {
            let est = &self.exec_est_ns[slot];
            let mut old = est.load(Ordering::Relaxed);
            loop {
                let new = (if old == 0 { ns } else { old - old / 4 + ns / 4 }).max(1);
                match est.compare_exchange_weak(old, new, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(current) => old = current,
                }
            }
        }
    }

    /// Current per-request execution estimate for an op kind (ns); 0
    /// when that kind has never executed.
    pub fn exec_estimate_ns(&self, kind: &str) -> u64 {
        OP_KINDS
            .iter()
            .position(|k| *k == kind)
            .map_or(0, |slot| self.exec_est_ns[slot].load(Ordering::Relaxed))
    }

    pub fn snapshot(&self) -> EngineStats {
        let batches = self.batches.load(Ordering::Relaxed);
        let priorities = std::array::from_fn(|slot| PriorityStats {
            served: self.per_priority[slot].served.load(Ordering::Relaxed),
            shed: self.per_priority[slot].shed.load(Ordering::Relaxed),
            expired: self.per_priority[slot].expired.load(Ordering::Relaxed),
        });
        EngineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            served_inline: self.served_inline.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            batches,
            max_batch: usize::from(batches > 0),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            latency_ns_sum: self.latency_ns_sum.load(Ordering::Relaxed),
            latency_ns_max: self.latency_ns_max.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            pool_hits: 0,
            pool_misses: 0,
            kernel_lookups: 0,
            kernel_hits: 0,
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            retunes_started: self.retunes_started.load(Ordering::Relaxed),
            retunes_completed: self.retunes_completed.load(Ordering::Relaxed),
            retunes_skipped: self.retunes_skipped.load(Ordering::Relaxed),
            shed: ShedStats {
                queue_full: self.shed_queue_full.load(Ordering::Relaxed),
                deadline_infeasible: self.shed_infeasible.load(Ordering::Relaxed),
                expired: self.shed_expired.load(Ordering::Relaxed),
            },
            latency: self.latency_hist.snapshot(),
            priorities,
        }
    }
}

/// Log₂-bucketed enqueue-to-answer latency histogram: bucket `i` counts
/// samples in `[2^i, 2^(i+1))` ns. Quantiles report the lower bound of
/// the bucket holding the requested rank, so they are exact on
/// power-of-two streams and within 2× otherwise — the right fidelity for
/// tail-latency gating without locks on the serving path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram { buckets: vec![0; LATENCY_BUCKETS] }
    }
}

impl LatencyHistogram {
    /// Fold one nanosecond sample in (snapshot-side mirror of the
    /// engine's lock-free recording; useful for tests and aggregation).
    pub fn record(&mut self, ns: u64) {
        self.buckets[latency_bucket(ns)] += 1;
    }

    /// Total recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the lower bound of the
    /// bucket holding rank `ceil(q · count)`; 0 when the histogram is
    /// empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }

    /// Median latency (ns).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile latency (ns).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile latency (ns).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The raw bucket counts (`buckets()[i]` counts samples in
    /// `[2^i, 2^(i+1))` ns).
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    fn saturating_sub(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        LatencyHistogram {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

/// Outcome counters of one [`Priority`] class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriorityStats {
    /// Requests of this class answered successfully.
    pub served: u64,
    /// Requests of this class refused at admission (any
    /// [`RejectReason`]).
    pub shed: u64,
    /// Requests of this class dropped unexecuted at drain time because
    /// their deadline had passed.
    pub expired: u64,
}

/// Admission-time shed counters, one per [`RejectReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedStats {
    /// Refused because the queue was full (includes queued requests
    /// evicted to admit higher-priority work).
    pub queue_full: u64,
    /// Shed because the deadline was infeasible by the engine's own
    /// estimate.
    pub deadline_infeasible: u64,
    /// Refused because the deadline had already passed at admission.
    pub expired: u64,
}

impl ShedStats {
    /// Total admission-time rejections.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.queue_full + self.deadline_infeasible + self.expired
    }
}

/// A point-in-time snapshot of an [`Engine`](crate::Engine)'s serving
/// counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests accepted: queued, or served on the submitting thread.
    pub submitted: u64,
    /// Requests a blocking submit served on the submitting thread,
    /// because a launch permit was free and nothing it does not outrank
    /// was queued (see
    /// [`Engine::submit`](crate::Engine::submit)). They never queue, so
    /// they leave [`EngineStats::queue_high_water`] alone.
    pub served_inline: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Submissions refused at admission — non-blocking submits against a
    /// full queue, deadline-infeasible or already-expired submissions,
    /// and queued requests evicted for higher-priority work. [`Self::shed`]
    /// splits this total by reason.
    pub rejected: u64,
    /// Queued requests evicted for higher-priority work (each also
    /// counted in [`Self::rejected`] and `shed.queue_full`).
    pub evicted: u64,
    /// Queued requests dropped unexecuted at drain time because their
    /// deadline had passed (answered
    /// [`RejectReason::Expired`]).
    pub expired: u64,
    /// Kernel launches: one per request served (each request runs in its
    /// own launch).
    pub batches: u64,
    /// Most requests one launch served: 1 once anything launched, else 0.
    pub max_batch: usize,
    /// Deepest the request queue has been.
    pub queue_high_water: usize,
    /// Total enqueue-to-answer latency over all answered requests.
    pub latency_ns_sum: u64,
    /// Worst single-request enqueue-to-answer latency.
    pub latency_ns_max: u64,
    /// Panics while serving survived (the affected request is answered
    /// [`EngineError::Exec`](crate::EngineError::Exec), a panicking retune
    /// leaves the stale decision in place, and the serving thread carries
    /// on).
    pub worker_panics: u64,
    /// Scratch-buffer acquisitions served from the runtime's size-classed
    /// [`BufferPool`](sparsetir_ir::exec::BufferPool) without allocating.
    pub pool_hits: u64,
    /// Scratch-buffer acquisitions that fell through to a fresh
    /// allocation (cold classes, or a drained size class).
    pub pool_misses: u64,
    /// Served launches that asked the shared runtime for their kernel by
    /// spec ([`Runtime::compile_keyed`](sparsetir_ir::exec::Runtime::compile_keyed)):
    /// one per launch.
    pub kernel_lookups: u64,
    /// How many of [`EngineStats::kernel_lookups`] found the kernel compiled
    /// — a warm launch, which builds no IR. The rest each compiled one.
    pub kernel_hits: u64,
    /// Dense operand and result bytes memcpy'd while serving — a "something
    /// copied" alarm that view assembly keeps at 0 for every served op. The
    /// adjacency binds in place but for `indptr`, which is not counted.
    pub bytes_copied: u64,
    /// Graph deltas applied through
    /// [`Engine::apply_delta`](crate::Engine::apply_delta).
    pub deltas_applied: u64,
    /// Retune passes started because a delta pushed the
    /// degree-histogram drift past
    /// [`DRIFT_THRESHOLD`](crate::DRIFT_THRESHOLD)
    /// (queued as a retune job; completed on the spot when nothing was
    /// tuned under the old anchor, so there is nothing to replay).
    pub retunes_started: u64,
    /// Retune passes that finished and swapped their fresh configs into
    /// the tune cache.
    pub retunes_completed: u64,
    /// Deltas whose drift stayed at or under the threshold, so the old
    /// tuning anchor (and every cached decision under it) was kept.
    pub retunes_skipped: u64,
    /// Admission-time rejections split by [`RejectReason`].
    pub shed: ShedStats,
    /// Enqueue-to-answer latency histogram (completed, failed and
    /// drain-expired requests all record; admission rejections do not).
    pub latency: LatencyHistogram,
    /// Per-priority outcome counters, indexed by [`Priority::ALL`] order
    /// (use [`EngineStats::priority`]).
    pub priorities: [PriorityStats; 3],
}

impl EngineStats {
    /// Mean enqueue-to-answer latency in nanoseconds (0 when nothing has
    /// been answered).
    #[must_use]
    pub fn mean_latency_ns(&self) -> f64 {
        let answered = self.completed + self.failed;
        if answered == 0 {
            0.0
        } else {
            self.latency_ns_sum as f64 / answered as f64
        }
    }

    /// Fraction of answered requests that shared a launch with another:
    /// always 0.0, since each request runs in its own launch.
    #[must_use]
    pub fn batching_rate(&self) -> f64 {
        0.0
    }

    /// The engine's conservation law, which holds whenever nothing is
    /// queued or being served: every accepted submission was answered
    /// exactly once — served, failed, expired in the queue or evicted
    /// from it.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.submitted == self.completed + self.failed + self.expired + self.evicted
    }

    /// Outcome counters of one priority class.
    #[must_use]
    pub fn priority(&self, p: Priority) -> &PriorityStats {
        &self.priorities[p.slot()]
    }

    /// Retune passes still in flight (started but not yet completed) per
    /// this snapshot — under stale-while-retune serving these are being
    /// answered from the previous anchor's configs.
    #[must_use]
    pub fn retunes_in_flight(&self) -> u64 {
        self.retunes_started.saturating_sub(self.retunes_completed)
    }

    /// The change in counters since an `earlier` snapshot of the same
    /// engine: counts subtract (saturating), and maxima and high-water
    /// marks keep the later value.
    #[must_use]
    pub fn delta_since(&self, earlier: &EngineStats) -> EngineStats {
        let priorities = std::array::from_fn(|slot| PriorityStats {
            served: self.priorities[slot].served.saturating_sub(earlier.priorities[slot].served),
            shed: self.priorities[slot].shed.saturating_sub(earlier.priorities[slot].shed),
            expired: self.priorities[slot].expired.saturating_sub(earlier.priorities[slot].expired),
        });
        EngineStats {
            submitted: self.submitted.saturating_sub(earlier.submitted),
            served_inline: self.served_inline.saturating_sub(earlier.served_inline),
            completed: self.completed.saturating_sub(earlier.completed),
            failed: self.failed.saturating_sub(earlier.failed),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            evicted: self.evicted.saturating_sub(earlier.evicted),
            expired: self.expired.saturating_sub(earlier.expired),
            batches: self.batches.saturating_sub(earlier.batches),
            max_batch: self.max_batch,
            queue_high_water: self.queue_high_water,
            latency_ns_sum: self.latency_ns_sum.saturating_sub(earlier.latency_ns_sum),
            latency_ns_max: self.latency_ns_max,
            worker_panics: self.worker_panics.saturating_sub(earlier.worker_panics),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            kernel_lookups: self.kernel_lookups.saturating_sub(earlier.kernel_lookups),
            kernel_hits: self.kernel_hits.saturating_sub(earlier.kernel_hits),
            bytes_copied: self.bytes_copied.saturating_sub(earlier.bytes_copied),
            deltas_applied: self.deltas_applied.saturating_sub(earlier.deltas_applied),
            retunes_started: self.retunes_started.saturating_sub(earlier.retunes_started),
            retunes_completed: self.retunes_completed.saturating_sub(earlier.retunes_completed),
            retunes_skipped: self.retunes_skipped.saturating_sub(earlier.retunes_skipped),
            shed: ShedStats {
                queue_full: self.shed.queue_full.saturating_sub(earlier.shed.queue_full),
                deadline_infeasible: self
                    .shed
                    .deadline_infeasible
                    .saturating_sub(earlier.shed.deadline_infeasible),
                expired: self.shed.expired.saturating_sub(earlier.shed.expired),
            },
            latency: self.latency.saturating_sub(&earlier.latency),
            priorities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sequential oracle for the α = 1/4 integer EWMA.
    fn ewma_step(old: u64, ns: u64) -> u64 {
        (if old == 0 { ns } else { old - old / 4 + ns / 4 }).max(1)
    }

    #[test]
    fn ewma_converges_to_constant_stream() {
        let stats = StatsInner::default();
        let mut oracle = 0u64;
        for _ in 0..64 {
            stats.record_exec("spmm", 10_000);
            oracle = ewma_step(oracle, 10_000);
        }
        assert_eq!(stats.exec_estimate_ns("spmm"), oracle);
        // The integer fixed point of old - old/4 + v/4 sits within one
        // rounding unit of v.
        assert!(stats.exec_estimate_ns("spmm").abs_diff(10_000) <= 4);
        assert_eq!(stats.exec_estimate_ns("sddmm"), 0, "other kinds stay cold");
        stats.record_exec("not-a-kind", 1); // unknown kinds are ignored
        assert_eq!(stats.exec_estimate_ns("not-a-kind"), 0);
    }

    /// Multi-thread hammer for the compare-exchange loop: with every
    /// thread feeding the same constant, the estimate must land on the
    /// EWMA fixed point of that constant — and never escape the sample
    /// range mid-flight. (The old blind store could drop whole updates
    /// under this contention; the CAS loop folds each exactly once.)
    #[test]
    fn ewma_hammer_converges_under_contention() {
        let stats = std::sync::Arc::new(StatsInner::default());
        let value = 8_192u64;
        std::thread::scope(|s| {
            for _ in 0..8 {
                let stats = std::sync::Arc::clone(&stats);
                s.spawn(move || {
                    for _ in 0..5_000 {
                        stats.record_exec("fused_attention", value);
                        let est = stats.exec_estimate_ns("fused_attention");
                        assert!(est > 0 && est <= value, "estimate {est} escaped (0, {value}]");
                    }
                });
            }
        });
        // Every interleaving folds only `value` samples, so the final
        // estimate is the fixed point (within integer-EWMA rounding).
        let fixed = {
            let mut x = 0u64;
            for _ in 0..64 {
                x = ewma_step(x, value);
            }
            x
        };
        assert!(
            stats.exec_estimate_ns("fused_attention").abs_diff(fixed) <= 4,
            "estimate {} did not converge to fixed point {fixed}",
            stats.exec_estimate_ns("fused_attention")
        );
    }
}
