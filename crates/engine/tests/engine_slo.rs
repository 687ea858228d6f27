//! SLO-machinery tests: expired-at-drain shedding (the refused request's
//! operands must never reach a kernel), exact quantiles out of the
//! log-bucketed latency histogram on a known stream, and priority
//! scheduling under a saturating low-priority flood. A test stages its
//! queue by `try_submit`-ing before anyone waits (nothing serves a queued
//! request until some caller waits or submits), and every engine ends
//! quiescent, where `EngineStats::conserved` must hold.

use proptest::prelude::*;
use sparsetir_engine::{
    Adjacency, Engine, EngineConfig, EngineError, LatencyHistogram, Priority, RejectReason,
    Submission,
};
use sparsetir_smat::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn slo_config() -> EngineConfig {
    EngineConfig { workers: 1, queue_depth: 16 }
}

/// One expired-at-drain scenario: a cheap SDDMM victim of shape `(sn, k)`
/// waits in the queue, unserved, past its deadline, then is waited on.
fn expired_at_drain_case(seed: u64, sn: usize, k: usize) {
    let mut rng = gen::rng(seed);
    // Cheap victim: an SDDMM on a small graph. Its op kind has no
    // execution estimate yet, so admission optimistically accepts it.
    let small_graph = gen::random_csr(sn, sn, 0.3, &mut rng);
    let small_adj = Adjacency::new(small_graph);
    let sx = gen::random_dense(sn, k, &mut rng);
    let sy = gen::random_dense(k, sn, &mut rng);

    let engine = Engine::new(slo_config());
    let deadline = Duration::from_millis(1);
    let victim = engine
        .try_submit(&small_adj, Submission::sddmm(sx, sy).deadline(deadline))
        .expect("victim admits: deadline is in the future and the kind is cold");
    std::thread::sleep(deadline * 2);

    let res = victim.wait();
    assert!(
        matches!(res, Err(EngineError::Rejected { reason: RejectReason::Expired })),
        "expired-at-drain must answer Rejected {{ Expired }}, got {res:?}"
    );

    let stats = engine.stats();
    assert_eq!(stats.expired, 1, "exactly the victim expired: {stats:?}");
    assert_eq!(stats.completed, 0, "nothing executed");
    assert_eq!(stats.priority(Priority::Normal).expired, 1);
    // Drain-time expiry is its own counter: the request *was* admitted,
    // so the admission-shed tallies stay untouched.
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.shed.total(), 0);
    // The proof the operands never reached a kernel: nothing was ever
    // compiled, and nothing was launched.
    assert_eq!(engine.runtime().cached(), 0, "no kernel may be compiled for the shed SDDMM");
    assert_eq!(stats.batches, 0, "no launch may be recorded");
    assert!(stats.conserved(), "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A request that was admissible at submit time but whose deadline
    /// lapses while it waits in the queue is answered
    /// `Rejected { reason: Expired }` at drain — and its operands never
    /// reach a kernel entry point: across random victim shapes the engine
    /// compiles no kernel for it and completes no request for it.
    #[test]
    fn expired_at_drain_is_shed_without_executing(
        seed in 0x51u64..0x61,
        sn in 8usize..32,
        k in 1usize..6,
    ) {
        expired_at_drain_case(seed, sn, k);
    }
}

/// The log-bucketed histogram answers exact percentiles for a stream of
/// power-of-two latencies (each sample sits on its bucket's lower
/// bound): 50×1µs-ish, 45×64µs-ish, 5×1ms-ish.
#[test]
fn histogram_percentiles_are_exact_on_a_known_stream() {
    let mut h = LatencyHistogram::default();
    for _ in 0..50 {
        h.record(1 << 10);
    }
    for _ in 0..45 {
        h.record(1 << 16);
    }
    for _ in 0..5 {
        h.record(1 << 20);
    }
    assert_eq!(h.count(), 100);
    assert_eq!(h.p50(), 1 << 10, "rank 50 lands on the last 2^10 sample");
    assert_eq!(h.p95(), 1 << 16, "rank 95 lands on the last 2^16 sample");
    assert_eq!(h.p99(), 1 << 20, "rank 99 lands in the 2^20 bucket");
    assert_eq!(h.quantile(0.0), 1 << 10, "rank clamps to the first sample");
    assert_eq!(h.quantile(1.0), 1 << 20, "rank 100 is the maximum bucket");
    // Off-power samples floor to their bucket's lower bound.
    let mut h2 = LatencyHistogram::default();
    h2.record(1500);
    assert_eq!(h2.p50(), 1 << 10);
}

/// The admission eviction path, pinned end to end: with the queue full
/// of Lo work that nobody has waited on yet, a Hi submission takes
/// the queue tail's slot. The evicted victim is answered
/// `Rejected { QueueFull }` (exactly once — its shed is tallied once,
/// under *its own* priority class, and it never executes), everything
/// else completes.
#[test]
fn eviction_victim_is_answered_queue_full_exactly_once() {
    let mut rng = gen::rng(0x53);
    let small_adj = Adjacency::new(gen::random_csr(32, 32, 0.3, &mut rng));
    let x = gen::random_dense(32, 4, &mut rng);

    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 2 });
    let lo_kept = engine
        .try_submit(&small_adj, Submission::spmm(x.clone()).priority(Priority::Lo))
        .expect("first Lo fills slot 1");
    let lo_victim = engine
        .try_submit(&small_adj, Submission::spmm(x.clone()).priority(Priority::Lo))
        .expect("second Lo fills slot 2");
    // Queue full of Lo: the Hi submission must evict the tail, not be
    // refused.
    let hi = engine
        .try_submit(&small_adj, Submission::spmm(x.clone()).priority(Priority::Hi))
        .expect("Hi evicts a Lo victim instead of being rejected");

    let res = lo_victim.wait();
    assert!(
        matches!(res, Err(EngineError::Rejected { reason: RejectReason::QueueFull })),
        "the evicted victim must be answered Rejected {{ QueueFull }}, got {res:?}"
    );
    lo_kept.wait_dense().expect("surviving Lo serves");
    hi.wait_dense().expect("evicting Hi serves");

    let stats = engine.stats();
    assert_eq!(stats.completed, 2, "surviving Lo + Hi; the victim never executed");
    assert_eq!(stats.rejected, 1, "exactly one shed event");
    assert_eq!(stats.shed.queue_full, 1, "tagged as a full-queue shed");
    assert_eq!(stats.priority(Priority::Lo).shed, 1, "counted under the VICTIM's class");
    assert_eq!(stats.priority(Priority::Lo).served, 1);
    assert_eq!(stats.priority(Priority::Hi).shed, 0, "the evictor sheds nothing");
    assert_eq!(stats.priority(Priority::Hi).served, 1, "the evicting Hi request");
    assert_eq!(stats.evicted, 1);
    assert!(stats.conserved(), "{stats:?}");
}

/// An equal-priority submission never evicts: against a full queue of
/// its own class it is the one refused, every queued ticket completes,
/// and the shed is tallied under the *submitter's* priority.
#[test]
fn equal_priority_submission_never_evicts() {
    let mut rng = gen::rng(0x54);
    let small_adj = Adjacency::new(gen::random_csr(32, 32, 0.3, &mut rng));
    let x = gen::random_dense(32, 4, &mut rng);

    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 2 });
    let queued: Vec<_> = (0..2)
        .map(|i| {
            engine
                .try_submit(&small_adj, Submission::spmm(x.clone()))
                .unwrap_or_else(|e| panic!("Normal request {i} fills the queue: {e:?}"))
        })
        .collect();
    let res = engine.try_submit(&small_adj, Submission::spmm(x.clone()));
    assert!(
        matches!(res, Err(EngineError::Rejected { reason: RejectReason::QueueFull })),
        "an equal-priority submission must be refused, not evict: {res:?}"
    );
    for (i, t) in queued.into_iter().enumerate() {
        t.wait_dense().unwrap_or_else(|e| panic!("queued request {i} must survive: {e:?}"));
    }

    let stats = engine.stats();
    assert_eq!(stats.completed, 2, "both queued requests");
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.shed.queue_full, 1);
    assert_eq!(stats.priority(Priority::Normal).shed, 1, "counted under the SUBMITTER's class");
    assert_eq!(stats.priority(Priority::Normal).served, 2);
    assert_eq!(stats.evicted, 0);
    assert!(stats.conserved(), "{stats:?}");
}

/// A saturating Lo-priority flood cannot starve Hi traffic: with the
/// queue permanently full of Lo work, every blocking Hi submission is
/// admitted (evicting a Lo victim if needed), ordered ahead of the
/// backlog, and served within its deadline. One last Lo request then
/// queues behind the flood's leftovers, and its wait serves them all.
#[test]
fn hi_priority_is_never_starved_by_a_lo_flood() {
    let mut rng = gen::rng(0x52);
    let graph = gen::random_csr(64, 64, 0.2, &mut rng);
    let adj = Adjacency::new(graph);
    let lo_x = gen::random_dense(64, 8, &mut rng);
    let hi_x = gen::random_dense(64, 4, &mut rng);
    let hi_y = gen::random_dense(4, 64, &mut rng);

    let engine = Arc::new(Engine::new(EngineConfig { workers: 1, queue_depth: 4 }));
    let stop = AtomicBool::new(false);
    // The flood fills the queue before any Hi request: nobody waits on a
    // flood request, so nothing serves the queue until the Hi clients come.
    std::thread::scope(|s| {
        for _ in 0..2 {
            let engine = Arc::clone(&engine);
            let adj = adj.clone();
            let lo_x = lo_x.clone();
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // Fire-and-forget: the dropped ticket's request is
                    // still served (or shed) and counted in the stats.
                    let _ = engine
                        .try_submit(&adj, Submission::spmm(lo_x.clone()).priority(Priority::Lo));
                    std::thread::yield_now();
                }
            });
        }
        while engine.stats().shed.queue_full == 0 {
            std::thread::yield_now();
        }
        for i in 0..8 {
            let sub = Submission::sddmm(hi_x.clone(), hi_y.clone())
                .deadline(Duration::from_secs(5))
                .priority(Priority::Hi);
            let out = engine.serve(&adj, sub);
            assert!(out.is_ok(), "Hi request {i} starved or shed: {out:?}");
        }
        stop.store(true, Ordering::Relaxed);
    });
    engine
        .serve(&adj, Submission::spmm(lo_x.clone()).priority(Priority::Lo))
        .expect("the last Lo request drains the queue");

    let stats = engine.stats();
    assert_eq!(stats.priority(Priority::Hi).served, 8, "every Hi request must be served");
    assert_eq!(stats.priority(Priority::Hi).shed, 0);
    assert!(stats.rejected > 0, "the Lo flood must have been shed: {stats:?}");
    assert!(stats.shed.queue_full > 0, "full-queue rejections must be tagged");
    assert!(stats.conserved(), "{stats:?}");
}
