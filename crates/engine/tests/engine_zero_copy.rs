//! Zero-copy serving suite: deterministic pins on the engine's
//! `bytes_copied` counter and scratch pool. The randomized
//! concurrent-vs-sequential bit-identity checks (with the same
//! `bytes_copied == 0` assertion per case) live in
//! `engine_differential.rs`; this file forces the interesting schedules
//! by hand — requests queued by `try_submit` before anyone waits (nothing
//! serves them until a caller does, however fast kernels run) and a
//! kernel batch of riders, a lone request of every served kind, pool
//! reuse, and mid-drain expiry.

use sparsetir_engine::{
    Adjacency, Engine, EngineConfig, EngineError, Priority, RejectReason, Submission,
};
use sparsetir_ir::exec::Runtime;
use sparsetir_kernels::prelude::{
    bytes_copied_on_thread, spmm_execute_views_on, AttnHead, SpmmConfig,
};
use sparsetir_smat::prelude::*;
use std::time::Duration;

fn test_engine() -> Engine {
    Engine::new(EngineConfig { workers: 2, queue_depth: 32 })
}

/// The acceptance headline: SpMM on the view path copies zero operand and
/// zero output bytes — the answers land straight in their own buffers.
/// Four queued requests launch one by one, and the same four as one batch
/// of riders through the kernel entry point copy nothing either.
#[test]
fn queued_spmm_launches_copy_zero_bytes_on_view_path() {
    let mut rng = gen::rng(0x2c0);
    let small = gen::random_csr(24, 24, 0.3, &mut rng);
    let adj = Adjacency::new(small.clone());
    let xs: Vec<Dense> = (0..4).map(|_| gen::random_dense(24, 3, &mut rng)).collect();

    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 32 });
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| engine.try_submit(&adj, Submission::spmm(x.clone())).expect("request admits"))
        .collect();
    let outs: Vec<Dense> =
        tickets.into_iter().map(|t| t.wait_dense().expect("request serves")).collect();
    let stats = engine.stats();
    assert_eq!(stats.batches, 4, "one launch per request: {stats:?}");
    assert_eq!(stats.bytes_copied, 0, "view path must copy nothing: {stats:?}");

    let refs: Vec<&Dense> = xs.iter().collect();
    let mut batched: Vec<Dense> = xs.iter().map(|_| Dense::zeros(24, 3)).collect();
    let before = bytes_copied_on_thread();
    spmm_execute_views_on(&Runtime::new(), &small, &refs, &mut batched, &SpmmConfig::default())
        .expect("the batch launches");
    assert_eq!(bytes_copied_on_thread(), before, "a batch of riders must copy nothing");
    for (out, rider) in outs.iter().zip(&batched) {
        assert_eq!(out, rider, "a rider's answer is its request's");
    }
}

/// A lone request of every served kind — fused SAGE and a
/// tuned request included — runs end-to-end with zero copies:
/// flat slices bind the caller's buffers directly. (With
/// `bind_dense` ticking the counter, a whole-tensor SAGE binding of `X`
/// and `W` would show up here.)
#[test]
fn batch_of_one_is_zero_copy_end_to_end() {
    let mut rng = gen::rng(0x2c1);
    let a = gen::random_csr(32, 32, 0.25, &mut rng);
    let adj = Adjacency::new(a);
    let engine = test_engine();

    let x = gen::random_dense(32, 5, &mut rng);
    engine.serve(&adj, Submission::spmm(x)).expect("spmm serves");

    let (sx, sy) = (gen::random_dense(32, 3, &mut rng), gen::random_dense(3, 32, &mut rng));
    engine.serve(&adj, Submission::sddmm(sx, sy)).expect("sddmm serves");

    let heads = vec![AttnHead {
        q: gen::random_dense(32, 3, &mut rng),
        kt: gen::random_dense(3, 32, &mut rng),
        v: gen::random_dense(32, 4, &mut rng),
    }];
    engine.serve(&adj, Submission::fused_attention(heads)).expect("fused attention serves");

    let (x, w) = (gen::random_dense(32, 6, &mut rng), gen::random_dense(6, 4, &mut rng));
    engine.serve(&adj, Submission::fused_sage(x.clone(), w.clone())).expect("fused sage serves");
    engine.serve(&adj, Submission::fused_sage(x, w).tune(true)).expect("tuned sage serves");
    let x = gen::random_dense(32, 5, &mut rng);
    engine.serve(&adj, Submission::spmm(x).tune(true)).expect("tuned spmm serves");

    let stats = engine.stats();
    assert_eq!(stats.completed, 6, "all six singleton requests answered: {stats:?}");
    assert_eq!(stats.bytes_copied, 0, "a lone request must be zero-copy: {stats:?}");
}

/// Scratch buffers for the fused-attention pipeline come from the
/// runtime's size-classed pool: serving the same shape twice must hit
/// the pool on the second round.
#[test]
fn repeated_serving_hits_the_buffer_pool() {
    let mut rng = gen::rng(0x2c2);
    let a = gen::random_csr(32, 32, 0.25, &mut rng);
    let adj = Adjacency::new(a);
    let engine = test_engine();
    for _ in 0..3 {
        let heads = vec![AttnHead {
            q: gen::random_dense(32, 3, &mut rng),
            kt: gen::random_dense(3, 32, &mut rng),
            v: gen::random_dense(32, 4, &mut rng),
        }];
        engine.serve(&adj, Submission::fused_attention(heads)).expect("serves");
    }
    let stats = engine.stats();
    assert!(stats.pool_misses > 0, "first round must allocate: {stats:?}");
    assert!(stats.pool_hits > 0, "later rounds must reuse pooled scratch: {stats:?}");
}

/// Mid-drain expiry on the view path: a victim whose deadline lapses
/// while it waits in the queue is swept before dispatch — the live request
/// behind it still answers, the victim's output buffer is never allocated
/// or written (one launch, the live request's; nothing copied), and the
/// answer is `Rejected { Expired }`.
#[test]
fn expired_victim_is_swept_without_writing_its_buffer() {
    let mut rng = gen::rng(0x2c3);
    let small = gen::random_csr(24, 24, 0.3, &mut rng);
    let adj = Adjacency::new(small.clone());
    let victim_x = gen::random_dense(24, 3, &mut rng);
    let live_x = gen::random_dense(24, 4, &mut rng);

    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 16 });
    // Nobody waits until the victim's deadline has lapsed, so it expires
    // in the queue; the live request has no deadline and drains.
    let deadline = Duration::from_millis(1);
    let victim = engine
        .try_submit(&adj, Submission::spmm(victim_x).deadline(deadline))
        .expect("victim admits while its deadline is still open");
    let live = engine.try_submit(&adj, Submission::spmm(live_x)).expect("live request admits");
    std::thread::sleep(deadline * 2);

    let res = victim.wait();
    assert!(
        matches!(res, Err(EngineError::Rejected { reason: RejectReason::Expired })),
        "expired victim must answer Rejected {{ Expired }}, got {res:?}"
    );
    live.wait_dense().expect("the live request still serves");

    let stats = engine.stats();
    assert_eq!(stats.expired, 1, "exactly the victim expired: {stats:?}");
    assert_eq!(stats.completed, 1, "only the live request executed: {stats:?}");
    assert_eq!(stats.priority(Priority::Normal).expired, 1);
    assert_eq!(stats.bytes_copied, 0, "nothing may be staged for the victim: {stats:?}");
    assert_eq!(stats.batches, 1, "the swept victim must not launch: {stats:?}");
}
