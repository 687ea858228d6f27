//! Behavioral tests for the serving engine: correctness of served
//! results, one launch per queued request, caller-run service (inline,
//! by the waiters, by a submit against a full queue, at drop),
//! backpressure, shape validation, and the tuned configuration path.
//! Every engine ends its test quiescent, where `EngineStats::conserved`
//! must hold. A test stages a queue by `try_submit`-ing before anyone
//! waits: nothing serves a queued request until some caller waits or
//! submits.

use sparsetir_engine::{
    Adjacency, Engine, EngineConfig, EngineError, OpOutput, RejectReason, Submission,
};
use sparsetir_ir::exec::Runtime;
use sparsetir_kernels::prelude::{
    attention_pipeline_oracle, fused_attention_reference, fused_sage_reference,
    sage_pipeline_oracle, sddmm_execute_views_on, spmm_execute_views_on, AttnHead, SpmmConfig,
};
use sparsetir_smat::prelude::*;
use std::sync::Arc;

fn power_law_csr(n: usize, seed: u64) -> Csr {
    let mut rng = gen::rng(seed);
    gen::random_csr_with_row_lengths(
        n,
        n,
        |r| {
            use rand::Rng;
            let u: f64 = r.gen_range(0.0..1.0);
            ((2.0 / (u + 0.01)) as usize).clamp(1, n / 2)
        },
        &mut rng,
    )
}

/// The sequential oracles: one request alone through its kernel entry
/// point on a fresh runtime, untuned.
fn solo_spmm(a: &Csr, x: &Dense) -> Dense {
    let mut outs = [Dense::zeros(a.rows(), x.cols())];
    spmm_execute_views_on(&Runtime::new(), a, &[x], &mut outs, &SpmmConfig::default())
        .expect("executes");
    let [out] = outs;
    out
}

fn solo_sddmm(a: &Csr, req: &(Dense, Dense)) -> Vec<f32> {
    let mut outs = [vec![0.0; a.nnz()]];
    sddmm_execute_views_on(&Runtime::new(), a, std::slice::from_ref(req), &mut outs)
        .expect("executes");
    let [out] = outs;
    out
}

/// The three-launch pipeline oracle over one request's heads, on a fresh
/// runtime.
fn attention_pipeline(a: &Csr, heads: &[AttnHead]) -> Vec<Dense> {
    let qs: Vec<&Dense> = heads.iter().map(|h| &h.q).collect();
    let kts: Vec<&Dense> = heads.iter().map(|h| &h.kt).collect();
    let vs: Vec<&Dense> = heads.iter().map(|h| &h.v).collect();
    let mut outs: Vec<Dense> = heads.iter().map(|h| Dense::zeros(a.rows(), h.v.cols())).collect();
    attention_pipeline_oracle(&Runtime::new(), a, &qs, &kts, &vs, &mut outs)
        .expect("pipeline oracle");
    outs
}

/// The conservation law of a quiescent engine.
fn assert_conserved(engine: &Engine) {
    let stats = engine.stats();
    assert!(stats.conserved(), "every accepted request answered exactly once: {stats:?}");
}

fn bit_eq(a: &Dense, b: &Dense) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn served_spmm_matches_direct_execution() {
    let mut rng = gen::rng(21);
    let a = gen::random_csr(24, 20, 0.2, &mut rng);
    let x = gen::random_dense(20, 6, &mut rng);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig::default());
    let served = engine
        .serve(&adj, Submission::spmm(x.clone()))
        .and_then(OpOutput::into_dense)
        .expect("serves");
    let direct = solo_spmm(&a, &x);
    assert!(bit_eq(&served, &direct), "served result must be bit-identical to direct execution");
    assert!(served.approx_eq(&a.spmm(&x).unwrap(), 1e-4));
    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.completed, stats.failed), (1, 1, 0));
    assert!(stats.latency_ns_max > 0);
    assert_conserved(&engine);
}

#[test]
fn served_sddmm_matches_direct_execution() {
    let mut rng = gen::rng(22);
    let a = gen::random_csr(12, 10, 0.25, &mut rng);
    let x = gen::random_dense(12, 5, &mut rng);
    let y = gen::random_dense(5, 10, &mut rng);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig::default());
    let served = engine
        .serve(&adj, Submission::sddmm(x.clone(), y.clone()))
        .and_then(OpOutput::into_edges)
        .expect("serves");
    let direct = solo_sddmm(&a, &(x, y));
    assert_eq!(served.len(), direct.len());
    for (s, d) in served.iter().zip(&direct) {
        assert_eq!(s.to_bits(), d.to_bits());
    }
    assert_conserved(&engine);
}

/// Queued same-adjacency requests are served one launch each (queued
/// requests do not share one), and every answer is bit-identical to the
/// request's solo launch.
#[test]
fn queued_requests_launch_once_each_and_stay_bit_identical() {
    let small = power_law_csr(64, 32);
    let adj = Adjacency::new(small.clone());
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 64 });
    let mut rng = gen::rng(33);
    let xs: Vec<Dense> = (0..6).map(|_| gen::random_dense(64, 4, &mut rng)).collect();
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| engine.try_submit(&adj, Submission::spmm(x.clone())).expect("submits"))
        .collect();
    for (x, t) in xs.iter().zip(tickets) {
        let got = t.wait_dense().expect("completes");
        let want = solo_spmm(&small, x);
        assert!(bit_eq(&got, &want));
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.served_inline, 0, "nothing is served inline from the queue");
    assert_eq!((stats.batches, stats.max_batch), (6, 1), "one launch per request: {stats:?}");
    assert_conserved(&engine);
}

#[test]
fn try_submit_saturates_on_a_full_queue() {
    let a = power_law_csr(64, 41);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 1 });
    let mut rng = gen::rng(42);
    // The first request fills the depth-1 queue, and nobody serves it
    // until it is waited on; the second must bounce.
    let t1 = engine
        .try_submit(&adj, Submission::spmm(gen::random_dense(a.cols(), 2, &mut rng)))
        .expect("submits");
    let err = engine
        .try_submit(&adj, Submission::spmm(gen::random_dense(a.cols(), 2, &mut rng)))
        .expect_err("queue is full");
    assert_eq!(err, EngineError::Rejected { reason: RejectReason::QueueFull });
    assert_eq!(engine.stats().rejected, 1);
    t1.wait_dense().expect("completes");
    assert_conserved(&engine);
}

/// An idle engine serves a blocking submit on the calling thread: the
/// ticket comes back answered (the counters say so before `wait`), the
/// answer is bit-identical to the sequential oracle, and nothing queued.
#[test]
fn an_idle_engine_serves_a_blocking_submit_inline() {
    let a = power_law_csr(64, 43);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
    let mut rng = gen::rng(44);
    let x = gen::random_dense(64, 4, &mut rng);
    let ticket = engine.submit(&adj, Submission::spmm(x.clone())).expect("submits");
    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.served_inline, stats.completed), (1, 1, 1), "{stats:?}");
    assert_eq!(stats.queue_high_water, 0, "{stats:?}");
    let got = ticket.wait_dense().expect("serves");
    assert!(bit_eq(&got, &solo_spmm(&a, &x)));
    assert_eq!(stats.latency.count(), 1, "an inline request records its latency");
    assert_conserved(&engine);
}

/// A ticket in flight whose request is still queued (a `try_submit`'s)
/// makes the next blocking submit, which does not outrank it, queue
/// behind it instead of serving inline; waiting on the second ticket
/// serves both, in order, on the waiting thread.
#[test]
fn a_ticket_in_flight_makes_the_next_submit_queue() {
    let a = power_law_csr(64, 45);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
    let mut rng = gen::rng(46);
    let xs: Vec<Dense> = (0..2).map(|_| gen::random_dense(64, 4, &mut rng)).collect();
    let first = engine.try_submit(&adj, Submission::spmm(xs[0].clone())).expect("submits");
    let second = engine.submit(&adj, Submission::spmm(xs[1].clone())).expect("submits");
    let stats = engine.stats();
    assert_eq!((stats.served_inline, stats.completed, stats.queue_high_water), (0, 0, 2));
    let got = second.wait_dense().expect("served by its own wait");
    assert!(bit_eq(&got, &solo_spmm(&a, &xs[1])));
    assert_eq!(engine.stats().completed, 2, "the wait served the queue head first");
    assert!(bit_eq(&first.wait_dense().expect("already answered"), &solo_spmm(&a, &xs[0])));
    assert_eq!(engine.stats().served_inline, 0);
    assert_conserved(&engine);
}

/// A queued request makes no progress on its own: the engine has no
/// thread of its own, so until some caller waits or submits, nothing
/// serves it.
#[test]
fn a_queued_request_waits_for_a_caller() {
    let a = power_law_csr(64, 51);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
    let x = gen::random_dense(64, 4, &mut gen::rng(52));
    let ticket = engine.try_submit(&adj, Submission::spmm(x.clone())).expect("submits");
    std::thread::sleep(std::time::Duration::from_millis(20));
    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.completed, stats.batches), (1, 0, 0), "{stats:?}");
    assert!(bit_eq(&ticket.wait_dense().expect("served by its wait"), &solo_spmm(&a, &x)));
    assert_eq!(engine.stats().completed, 1);
    assert_conserved(&engine);
}

/// A blocking submit that meets a full queue serves the head itself to
/// make space; then, nothing queued and a permit free, it serves its own
/// request inline. Both tickets come back answered.
#[test]
fn a_blocking_submit_on_a_full_queue_serves_the_head_itself() {
    let a = power_law_csr(64, 53);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 1 });
    let mut rng = gen::rng(54);
    let xs: Vec<Dense> = (0..2).map(|_| gen::random_dense(64, 4, &mut rng)).collect();
    let queued = engine.try_submit(&adj, Submission::spmm(xs[0].clone())).expect("fills the queue");
    let inline = engine.submit(&adj, Submission::spmm(xs[1].clone())).expect("submits");
    let stats = engine.stats();
    assert_eq!((stats.completed, stats.served_inline, stats.rejected), (2, 1, 0), "{stats:?}");
    assert!(bit_eq(&queued.wait_dense().expect("served by the submit"), &solo_spmm(&a, &xs[0])));
    assert!(bit_eq(&inline.wait_dense().expect("served inline"), &solo_spmm(&a, &xs[1])));
    assert_conserved(&engine);
}

/// A ticket dropped unwaited does not drop its request: the next waiter
/// whose own request ranks behind it serves it first.
#[test]
fn a_dropped_tickets_request_is_still_served() {
    let a = power_law_csr(64, 55);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
    let mut rng = gen::rng(56);
    let xs: Vec<Dense> = (0..2).map(|_| gen::random_dense(64, 4, &mut rng)).collect();
    drop(engine.try_submit(&adj, Submission::spmm(xs[0].clone())).expect("submits"));
    let kept = engine.try_submit(&adj, Submission::spmm(xs[1].clone())).expect("submits");
    assert_eq!(engine.stats().completed, 0);
    assert!(bit_eq(&kept.wait_dense().expect("serves"), &solo_spmm(&a, &xs[1])));
    let stats = engine.stats();
    assert_eq!((stats.completed, stats.batches), (2, 2), "the dropped one launched too: {stats:?}");
    assert_conserved(&engine);
}

/// A client that submits several requests before waiting holds several
/// tickets, but each blocking submit finds a permit free and nothing
/// queued, so each is served inline on the client's thread, one launch at
/// a time, however many permits the engine has.
#[test]
fn a_client_holding_tickets_is_served_one_launch_at_a_time() {
    let a = power_law_csr(64, 49);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 3, ..EngineConfig::default() });
    let mut rng = gen::rng(50);
    let xs: Vec<Dense> = (0..4).map(|_| gen::random_dense(64, 4, &mut rng)).collect();
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| engine.submit(&adj, Submission::spmm(x.clone())).expect("submits"))
        .collect();
    let stats = engine.stats();
    assert_eq!((stats.served_inline, stats.completed, stats.queue_high_water), (4, 4, 0));
    for (x, t) in xs.iter().zip(tickets) {
        assert!(bit_eq(&t.wait_dense().expect("serves"), &solo_spmm(&a, x)));
    }
    assert_conserved(&engine);
}

/// `try_submit` promises not to block, so even an idle engine queues it
/// for a worker.
#[test]
fn try_submit_never_serves_inline() {
    let a = power_law_csr(64, 47);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
    let mut rng = gen::rng(48);
    for _ in 0..3 {
        let x = gen::random_dense(64, 4, &mut rng);
        let got = engine
            .try_submit(&adj, Submission::spmm(x.clone()))
            .expect("admits")
            .wait_dense()
            .expect("serves");
        assert!(bit_eq(&got, &solo_spmm(&a, &x)));
    }
    let stats = engine.stats();
    assert_eq!((stats.served_inline, stats.completed, stats.queue_high_water), (0, 3, 1));
    assert_conserved(&engine);
}

#[test]
fn shape_mismatches_are_rejected_at_submit() {
    let mut rng = gen::rng(51);
    let a = gen::random_csr(10, 8, 0.3, &mut rng);
    let adj = Adjacency::new(a);
    let engine = Engine::new(EngineConfig::default());
    let bad = gen::random_dense(9, 2, &mut rng);
    match engine.submit(&adj, Submission::spmm(bad)) {
        Err(EngineError::Shape(msg)) => assert!(msg.contains("9 rows"), "{msg}"),
        other => panic!("expected shape error, got {other:?}"),
    }
    let x = gen::random_dense(10, 3, &mut rng);
    let y_bad = gen::random_dense(4, 8, &mut rng); // y.rows != x.cols
    assert!(matches!(engine.submit(&adj, Submission::sddmm(x, y_bad)), Err(EngineError::Shape(_))));
    assert_eq!(engine.stats().submitted, 0, "rejected requests never enqueue");
    assert_conserved(&engine);
}

/// Dropping the engine drains the queue: the dropping thread serves the
/// requests still queued, so their tickets are answered after the engine
/// is gone.
#[test]
fn shutdown_drains_pending_requests() {
    let mut rng = gen::rng(61);
    let a = gen::random_csr(40, 40, 0.15, &mut rng);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 64 });
    let xs: Vec<Dense> = (0..5).map(|_| gen::random_dense(40, 3, &mut rng)).collect();
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| engine.try_submit(&adj, Submission::spmm(x.clone())).expect("submits"))
        .collect();
    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.completed), (5, 0), "all five queued: {stats:?}");
    drop(engine);
    for (x, t) in xs.iter().zip(tickets) {
        let got = t.wait_dense().expect("drained on shutdown");
        assert!(got.approx_eq(&a.spmm(x).unwrap(), 1e-4));
    }
}

/// Concurrent clients hammering one engine from many threads: every
/// response must be the right answer for *its* request (no cross-request
/// mixups), and the counters must reconcile.
#[test]
fn concurrent_clients_get_their_own_answers() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 6;
    let a = power_law_csr(96, 71);
    let adj = Adjacency::new(a.clone());
    let engine = Arc::new(Engine::new(EngineConfig { workers: 2, queue_depth: 32 }));
    let a = Arc::new(a);
    // Every client queues its first request before anyone waits, so the
    // queue fills whatever the scheduling; then the clients serve it.
    let queued = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let engine = Arc::clone(&engine);
            let adj = adj.clone();
            let a = Arc::clone(&a);
            let queued = &queued;
            s.spawn(move || {
                let mut rng = gen::rng(100 + client as u64);
                let xs: Vec<Dense> = (0..PER_CLIENT)
                    .map(|i| gen::random_dense(96, 1 + (client + i) % 5, &mut rng))
                    .collect();
                let check = |i: usize, got: Dense| {
                    let want = a.spmm(&xs[i]).unwrap();
                    assert!(
                        got.approx_eq(&want, 1e-4),
                        "client {client} request {i} got a wrong answer"
                    );
                };
                let first = engine.try_submit(&adj, Submission::spmm(xs[0].clone()));
                queued.wait();
                check(0, first.and_then(sparsetir_engine::Ticket::wait_dense).expect("serves"));
                for (i, x) in xs.iter().enumerate().skip(1) {
                    let got = engine.serve(&adj, Submission::spmm(x.clone()));
                    check(i, got.and_then(OpOutput::into_dense).expect("serves"));
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.failed, 0);
    assert!(stats.queue_high_water >= CLIENTS, "{stats:?}");
    assert_eq!(stats.batches, stats.completed, "one launch per request: {stats:?}");
    assert!(stats.conserved(), "{stats:?}");
}

/// `.tune(true)` routes the first request of each adjacency through the
/// measured decision exactly once, caches the decision, and keeps
/// serving correct results under the tuned (possibly hyb-decomposed)
/// configuration.
#[test]
fn tuned_engine_caches_one_decision_per_adjacency() {
    let a = power_law_csr(300, 81);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 16 });
    let mut rng = gen::rng(82);
    for _ in 0..3 {
        let x = gen::random_dense(300, 8, &mut rng);
        let got = engine
            .serve(&adj, Submission::spmm(x.clone()).tune(true))
            .and_then(OpOutput::into_dense)
            .expect("serves");
        assert!(got.approx_eq(&a.spmm(&x).unwrap(), 1e-3));
    }
    assert_eq!(engine.tune_cache().len(), 1, "one cached decision for one adjacency");
    assert_eq!(engine.tune_cache().misses(), 1, "only the first request tunes");
    assert!(engine.tune_cache().hits() >= 1);
    assert_conserved(&engine);
}

/// The engine's decision is measured: one `.tune(true)` SpMM files,
/// under `kernels::tune::measured_spmm_key` (`spmm` / the measured backend /
/// the host / the adjacency's own fingerprint), one of the configs
/// `kernels::tune::spmm_shortlist` names — the one whose whole launch won on
/// the engine's runtime — and a second tuned request hits that decision
/// and compiles no kernel.
#[test]
fn the_engines_decision_is_measured() {
    use sparsetir_kernels::tune::{
        measured_spmm_key, spmm_shortlist, SparsityFingerprint, TuneKey,
    };
    let a = power_law_csr(300, 83);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
    let mut rng = gen::rng(84);
    let x = gen::random_dense(300, 8, &mut rng);
    engine.serve(&adj, Submission::spmm(x.clone()).tune(true)).expect("serves tuned spmm");
    let key = TuneKey {
        workload: "spmm",
        backend: "measured",
        device: "host",
        extra: vec![],
        fingerprint: SparsityFingerprint::of(&a),
    };
    assert_eq!(measured_spmm_key(&key.fingerprint), key);
    let cached = engine.tune_cache().peek(&key).expect("the decision is filed under that key");
    assert!(spmm_shortlist().contains(&cached), "{cached:?}");
    assert_eq!((engine.tune_cache().len(), engine.tune_cache().misses()), (1, 1));
    let compilations = engine.runtime().compilations();
    let got = engine
        .serve(&adj, Submission::spmm(x.clone()).tune(true))
        .and_then(OpOutput::into_dense)
        .expect("serves tuned spmm again");
    assert!(got.approx_eq(&a.spmm(&x).unwrap(), 1e-3));
    assert_eq!(engine.tune_cache().misses(), 1, "the second request hit the decision");
    assert!(engine.tune_cache().hits() >= 1);
    assert_eq!(engine.runtime().compilations(), compilations, "a decision hit compiles nothing");
    assert_conserved(&engine);
}

/// The engine tunes only what a launch reads. SDDMM, fused attention and
/// fused SAGE launch under no searched configuration, so a
/// `.tune(true)` submission of theirs never touches the tune cache and
/// answers exactly like the untuned one; SpMM takes one decision per
/// anchor, and a re-anchor replays that one decision and nothing else.
#[test]
fn tuned_submissions_search_only_ops_whose_launch_reads_a_config() {
    fn bits(out: OpOutput) -> Vec<u32> {
        let flat: Vec<f32> = match out {
            OpOutput::Dense(d) => d.data().to_vec(),
            OpOutput::Edges(e) => e,
            OpOutput::Heads(hs) => hs.iter().flat_map(|h| h.data().to_vec()).collect(),
        };
        flat.iter().map(|v| v.to_bits()).collect()
    }
    let n = 16u32;
    let diagonal: Vec<_> = (0..n).map(|i| (i, i, 1.0f32)).collect();
    let a = Csr::from_coo(&Coo::from_entries(16, 16, diagonal).expect("in-bounds"));
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
    let mut rng = gen::rng(111);
    let subs = [
        Submission::sddmm(gen::random_dense(16, 3, &mut rng), gen::random_dense(3, 16, &mut rng)),
        Submission::fused_attention(vec![random_head(&a, 4, 3, &mut rng)]),
        Submission::fused_sage(
            gen::random_dense(16, 5, &mut rng),
            gen::random_dense(5, 3, &mut rng),
        ),
    ];
    for sub in subs {
        let kind = sub.kind();
        let tuned = engine.serve(&adj, sub.clone().tune(true)).expect("serves tuned");
        let plain = engine.serve(&adj, sub).expect("serves untuned");
        assert_eq!(bits(tuned), bits(plain), "{kind}: a tuned submission changed the answer");
    }
    let cache = engine.tune_cache();
    assert_eq!((cache.len(), cache.misses(), cache.hits()), (0, 0, 0), "nothing to decide");

    let x = gen::random_dense(16, 4, &mut rng);
    engine.serve(&adj, Submission::spmm(x.clone()).tune(true)).expect("serves tuned spmm");
    assert_eq!((cache.len(), cache.misses()), (1, 1), "the one searched kind");

    // A second edge on every row shifts the whole degree histogram a bin:
    // the successor re-anchors and the queued retune replays SpMM's
    // decision under the new anchor — old + new, nothing else.
    let mut delta = GraphDelta::new();
    for i in 0..n {
        delta.upsert(i, (i + 1) % n, 0.5);
    }
    let next = engine.apply_delta(&adj, &delta).expect("in-bounds delta");
    assert_ne!(next.anchor(), adj.anchor(), "above threshold re-anchors");
    engine.quiesce_retunes();
    assert_eq!((cache.len(), cache.misses()), (2, 1));
    let served = engine
        .serve(&next, Submission::spmm(x.clone()).tune(true))
        .and_then(OpOutput::into_dense)
        .expect("serves the successor");
    assert!(served.approx_eq(&next.csr().spmm(&x).unwrap(), 1e-4));
    assert_eq!(cache.misses(), 1, "the successor hit the replayed decision");
    assert_conserved(&engine);
}

/// The engine's private runtime caches kernels across requests: repeated
/// same-width requests on one adjacency compile exactly once.
#[test]
fn repeated_requests_reuse_compiled_kernels() {
    let mut rng = gen::rng(91);
    let a = gen::random_csr(32, 32, 0.2, &mut rng);
    let adj = Adjacency::new(a);
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 16 });
    for _ in 0..4 {
        let x = gen::random_dense(32, 4, &mut rng);
        engine.serve(&adj, Submission::spmm(x)).and_then(OpOutput::into_dense).expect("serves");
    }
    assert_eq!(
        engine.runtime().compilations(),
        1,
        "four same-shape requests must share one compiled kernel"
    );
    assert_eq!(engine.runtime().cached(), 1);
    assert_conserved(&engine);
}

/// A warm request looks its kernel up by spec and builds nothing: three
/// tenants (three shapes) × two kinds served 20× each, one launch per
/// request, compile six kernels and hit on every launch after the six
/// first ones — `kernel_hits / kernel_lookups` = 114 / 120.
#[test]
fn warm_requests_hit_the_kernel_cache() {
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 16 });
    let tenants: Vec<Adjacency> =
        [24usize, 32, 40].iter().map(|&n| Adjacency::new(power_law_csr(n, n as u64))).collect();
    let mut rng = gen::rng(92);
    for _ in 0..20 {
        for adj in &tenants {
            let n = adj.csr().rows();
            let x = gen::random_dense(n, 4, &mut rng);
            engine.serve(adj, Submission::spmm(x)).expect("serves spmm");
            let (x, y) = (gen::random_dense(n, 3, &mut rng), gen::random_dense(3, n, &mut rng));
            engine.serve(adj, Submission::sddmm(x, y)).expect("serves sddmm");
        }
    }
    let stats = engine.stats();
    assert_eq!((stats.kernel_lookups, stats.kernel_hits), (120, 114), "{stats:?}");
    assert!(stats.kernel_hits as f64 / stats.kernel_lookups as f64 >= 0.9);
    assert_eq!(engine.runtime().compilations(), 6, "one kernel per (tenant, kind)");
    let warm = engine.stats();
    engine.serve(&tenants[0], Submission::spmm(Dense::zeros(24, 4))).expect("serves");
    let delta = engine.stats().delta_since(&warm);
    assert_eq!((delta.kernel_lookups, delta.kernel_hits), (1, 1), "deltas carry both counters");
    assert_conserved(&engine);
}

/// The generic submit path serves every op through one ticket shape:
/// submit an [`OpRequest`], get an [`OpOutput`], convert with the typed
/// accessors.
#[test]
fn generic_submit_path_serves_every_op() {
    use sparsetir_engine::{OpOutput, OpRequest};
    let mut rng = gen::rng(101);
    let a = gen::random_csr(20, 16, 0.25, &mut rng);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig::default());

    let x = gen::random_dense(16, 4, &mut rng);
    let spmm = engine.serve(&adj, OpRequest::Spmm(x.clone())).expect("spmm serves");
    assert!(matches!(&spmm, OpOutput::Dense(_)));
    assert!(spmm.into_dense().unwrap().approx_eq(&a.spmm(&x).unwrap(), 1e-4));

    let sx = gen::random_dense(20, 3, &mut rng);
    let sy = gen::random_dense(3, 16, &mut rng);
    let sddmm =
        engine.serve(&adj, OpRequest::Sddmm((sx.clone(), sy.clone()))).expect("sddmm serves");
    let edges = sddmm.into_edges().unwrap();
    assert_eq!(edges.len(), a.nnz());

    let heads: Vec<AttnHead> = (0..3).map(|_| random_head(&a, 4, 2, &mut rng)).collect();
    let attn =
        engine.serve(&adj, OpRequest::FusedAttention(heads.clone())).expect("attention serves");
    // A per-head output asked for as one dense matrix names its op.
    let err = attn.clone().into_dense().expect_err("heads are not one dense matrix");
    assert!(matches!(&err, EngineError::Output(m) if m.contains("fused_attention")), "{err}");
    let outs = attn.into_heads().unwrap();
    assert_eq!(outs.len(), heads.len());
    for (out, h) in outs.iter().zip(&heads) {
        let want = fused_attention_reference(&a, &h.q, &h.kt, &h.v, 1);
        assert!(out.approx_eq(&want, 1e-4), "max |Δ| = {}", out.max_abs_diff(&want));
    }

    let (sx, w) = (gen::random_dense(16, 5, &mut rng), gen::random_dense(5, 3, &mut rng));
    let sage = engine.serve(&adj, OpRequest::FusedSage((sx.clone(), w.clone())));
    let want = fused_sage_reference(&a, &sx, &w);
    assert!(sage.expect("fused sage serves").into_dense().unwrap().approx_eq(&want, 1e-4));

    // An op-mismatched accessor is a typed error, not a panic.
    let again = engine.serve(&adj, OpRequest::Spmm(x)).expect("serves");
    assert!(matches!(again.into_edges(), Err(EngineError::Output(_))));
    assert_conserved(&engine);
}

/// An injected panic fires in the next served launch, inside the catch
/// every launch runs under: that request is answered `Exec`, the panic is
/// counted, and the serving thread and the engine carry on — later
/// requests are served, and shutdown does not hang.
#[test]
fn engine_survives_injected_worker_panic() {
    let mut rng = gen::rng(111);
    let a = gen::random_csr(24, 24, 0.2, &mut rng);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 16 });
    // A request before the crash proves the engine was healthy.
    let x0 = gen::random_dense(24, 3, &mut rng);
    assert!(engine.serve(&adj, Submission::spmm(x0)).and_then(OpOutput::into_dense).is_ok());

    engine.inject_worker_panic();
    let crashed = engine.serve(&adj, Submission::spmm(gen::random_dense(24, 3, &mut rng)));
    assert!(
        matches!(&crashed, Err(EngineError::Exec(m)) if m.contains("injected")),
        "the injected panic answers its request Exec: {crashed:?}"
    );

    // Submits *after* the panic must not panic in the client thread and
    // must still be served.
    for i in 0..4 {
        let x = gen::random_dense(24, 2 + i % 3, &mut rng);
        let got = engine
            .serve(&adj, Submission::spmm(x.clone()))
            .and_then(OpOutput::into_dense)
            .expect("served after the panic");
        assert!(got.approx_eq(&a.spmm(&x).unwrap(), 1e-4));
    }
    let stats = engine.stats();
    assert_eq!(stats.worker_panics, 1, "the injected panic must be counted: {stats:?}");
    assert_eq!((stats.completed, stats.failed), (5, 1), "{stats:?}");
    assert_conserved(&engine);
    drop(engine);
}

/// Concurrent clients racing an injected panic: nobody observes a client-
/// side panic, every request is answered — exactly one of them `Exec` —
/// and the engine keeps serving.
#[test]
fn concurrent_submits_survive_worker_panic() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 6;
    let a = power_law_csr(64, 121);
    let adj = Adjacency::new(a.clone());
    let engine = Arc::new(Engine::new(EngineConfig { workers: 2, queue_depth: 16 }));
    engine.inject_worker_panic();
    let crashed: usize = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let engine = Arc::clone(&engine);
                let adj = adj.clone();
                let a = a.clone();
                s.spawn(move || {
                    let mut rng = gen::rng(500 + client as u64);
                    let mut crashed = 0;
                    for _ in 0..PER_CLIENT {
                        let x = gen::random_dense(64, 1 + client % 4, &mut rng);
                        match engine.serve(&adj, Submission::spmm(x.clone())) {
                            Ok(got) => {
                                let got = got.into_dense().expect("dense");
                                assert!(got.approx_eq(&a.spmm(&x).unwrap(), 1e-4));
                            }
                            Err(EngineError::Exec(_)) => crashed += 1,
                            Err(e) => panic!("unexpected answer {e}"),
                        }
                    }
                    crashed
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client finishes")).sum()
    });
    assert_eq!(crashed, 1, "exactly the one launch the hook armed");
    let stats = engine.stats();
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT - 1) as u64);
    assert_eq!((stats.failed, stats.worker_panics), (1, 1));
    assert!(stats.conserved(), "{stats:?}");
}

/// Queued SDDMM requests launch once each and stay bit-identical to their
/// solo launch.
#[test]
fn queued_sddmm_requests_launch_once_each_and_stay_bit_identical() {
    let small = power_law_csr(48, 132);
    let adj = Adjacency::new(small.clone());
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 64 });
    let mut rng = gen::rng(133);
    let k = 5;
    let reqs: Vec<(Dense, Dense)> = (0..5)
        .map(|_| (gen::random_dense(48, k, &mut rng), gen::random_dense(k, 48, &mut rng)))
        .collect();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|(x, y)| {
            engine.try_submit(&adj, Submission::sddmm(x.clone(), y.clone())).expect("submits")
        })
        .collect();
    for (req, t) in reqs.iter().zip(tickets) {
        let got = t.wait_edges().expect("completes");
        let want = solo_sddmm(&small, req);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, 5);
    assert_eq!((stats.batches, stats.max_batch), (5, 1), "one launch per request: {stats:?}");
    assert_conserved(&engine);
}

/// Mixed-op queues never cross-batch: SpMM and SDDMM requests on one
/// adjacency, SDDMM at two inner widths, dispatch as separate launches.
#[test]
fn incompatible_requests_do_not_batch() {
    let small = power_law_csr(32, 142);
    let adj = Adjacency::new(small.clone());
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 64 });
    let mut rng = gen::rng(143);
    // Two SDDMM inner widths plus one SpMM, all queued before any wait.
    let s1 = (gen::random_dense(32, 2, &mut rng), gen::random_dense(2, 32, &mut rng));
    let s2 = (gen::random_dense(32, 3, &mut rng), gen::random_dense(3, 32, &mut rng));
    let sddmm = |s: &(Dense, Dense)| Submission::sddmm(s.0.clone(), s.1.clone());
    let t1 = engine.try_submit(&adj, sddmm(&s1)).expect("submits");
    let t2 = engine.try_submit(&adj, sddmm(&s2)).expect("submits");
    let x = gen::random_dense(32, 4, &mut rng);
    let t3 = engine.try_submit(&adj, Submission::spmm(x.clone())).expect("submits");
    let got1 = t1.wait_edges().expect("completes");
    let got2 = t2.wait_edges().expect("completes");
    let got3 = t3.wait_dense().expect("completes");
    for (got, req) in [(got1, &s1), (got2, &s2)] {
        let want = solo_sddmm(&small, req);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
    assert!(got3.approx_eq(&small.spmm(&x).unwrap(), 1e-4));
    let stats = engine.stats();
    // Three requests, three launches.
    assert_eq!(stats.batches, 3, "{stats:?}");
    assert_eq!(stats.max_batch, 1, "{stats:?}");
    assert_conserved(&engine);
}

/// Queued SpMM requests at mixed widths launch once each, every answer bit-identical to its solo launch; and a zero-width
/// request answers `rows × 0` without looking up a kernel.
#[test]
fn spmm_riders_dispatch_once_per_width() {
    let small = power_law_csr(32, 144);
    let adj = Adjacency::new(small.clone());
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 64 });
    let mut rng = gen::rng(145);
    let xs: Vec<Dense> =
        [3usize, 5, 3, 1, 5, 3].iter().map(|&w| gen::random_dense(32, w, &mut rng)).collect();
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| engine.try_submit(&adj, Submission::spmm(x.clone())).expect("submits"))
        .collect();
    for (x, t) in xs.iter().zip(tickets) {
        let got = t.wait_dense().expect("completes");
        assert!(bit_eq(&got, &solo_spmm(&small, x)), "width {}", x.cols());
    }
    let stats = engine.stats();
    assert_eq!((stats.batches, stats.max_batch), (6, 1), "one launch per request: {stats:?}");
    assert_eq!(stats.kernel_lookups, 6, "each launch looks up its kernel: {stats:?}");

    let tickets: Vec<_> = (0..2)
        .map(|_| engine.try_submit(&adj, Submission::spmm(Dense::zeros(32, 0))).expect("submits"))
        .collect();
    for t in tickets {
        let got = t.wait_dense().expect("completes");
        assert_eq!((got.rows(), got.cols()), (32, 0));
    }
    let after = engine.stats();
    assert_eq!(after.kernel_lookups, stats.kernel_lookups, "a zero-width launch runs nothing");
    assert_eq!(after.batches, 8);
    assert_conserved(&engine);
}

fn random_head(a: &Csr, k: usize, vfeat: usize, rng: &mut rand::rngs::SmallRng) -> AttnHead {
    AttnHead {
        q: gen::random_dense(a.rows(), k, rng),
        kt: gen::random_dense(k, a.cols(), rng),
        v: gen::random_dense(a.cols(), vfeat, rng),
    }
}

/// The fused ops serve through the same generic path as everything else,
/// and their answers are bit-identical to the multi-launch pipeline run
/// outside the engine — serving adds no rounding.
#[test]
fn served_fused_ops_match_their_pipeline_oracles() {
    let mut rng = gen::rng(151);
    let a = gen::random_csr(24, 20, 0.2, &mut rng);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig::default());

    let head = random_head(&a, 4, 3, &mut rng);
    let got = engine
        .serve(&adj, Submission::fused_attention(vec![head.clone()]))
        .and_then(OpOutput::into_heads)
        .expect("serves");
    assert_eq!(got.len(), 1);
    let oracle = attention_pipeline(&a, &[head]);
    assert!(
        bit_eq(&got[0], &oracle[0]),
        "served fused attention must match the three-launch oracle"
    );

    let x = gen::random_dense(20, 5, &mut rng);
    let w = gen::random_dense(5, 3, &mut rng);
    let sage = engine
        .serve(&adj, Submission::fused_sage(x.clone(), w.clone()))
        .and_then(OpOutput::into_dense)
        .expect("serves");
    let sage_oracle = sage_pipeline_oracle(&Runtime::new(), &a, &x, &w).expect("pipeline oracle");
    assert!(bit_eq(&sage, &sage_oracle), "served fused sage must match the two-launch oracle");

    assert_eq!(engine.stats().batches, 2, "one launch per request");
    assert_conserved(&engine);
}

/// Queued fused attention requests, at mixed head shapes and head counts,
/// launch once each and match the three-launch pipeline bit for bit; the
/// launch counters record one launch per request, the widest one request
/// wide.
#[test]
fn queued_fused_attention_requests_launch_once_each() {
    let small = power_law_csr(48, 172);
    let adj = Adjacency::new(small.clone());
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 64 });
    let mut rng = gen::rng(173);
    let reqs: Vec<Vec<AttnHead>> = vec![
        vec![random_head(&small, 2, 2, &mut rng)],
        vec![random_head(&small, 2, 2, &mut rng), random_head(&small, 2, 2, &mut rng)],
        vec![random_head(&small, 3, 2, &mut rng)],
    ];
    let tickets: Vec<_> = reqs
        .iter()
        .map(|heads| {
            engine.try_submit(&adj, Submission::fused_attention(heads.clone())).expect("submits")
        })
        .collect();
    for (heads, t) in reqs.iter().zip(tickets) {
        let got = t.wait_heads().expect("completes");
        assert_eq!(got.len(), heads.len());
        let want = attention_pipeline(&small, heads);
        for (out, want) in got.iter().zip(&want) {
            assert!(bit_eq(out, want), "served fused attention must match the oracle");
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!((stats.batches, stats.max_batch), (3, 1), "one launch per request: {stats:?}");
    assert_eq!(stats.kernel_lookups, 3, "each launch looks up its kernel: {stats:?}");
    assert_conserved(&engine);
}

/// Zero-row and zero-nnz adjacencies are valid public constructions:
/// every kernel entry point and every served op kind must answer them
/// with an empty (or all-zero) result or a typed error — never a panic,
/// an out-of-bounds pointer or a `worker_panics` tick.
#[test]
fn empty_adjacencies_are_answered_not_panicked_on() {
    use sparsetir_kernels::prelude::{
        fused_attention_views_on, fused_sage_execute_on, sddmm_execute_views_on,
        spmm_execute_views_on, SpmmConfig,
    };
    let n = 6;
    let zero_rows = Csr::new(0, n, vec![0], vec![], vec![]).expect("valid");
    let zero_nnz = Csr::new(4, n, vec![0; 5], vec![], vec![]).expect("valid");
    let mut rng = gen::rng(191);
    for a in [zero_rows, zero_nnz] {
        let (m, tag) = (a.rows(), format!("{}x{} nnz {}", a.rows(), a.cols(), a.nnz()));
        let x = gen::random_dense(n, 3, &mut rng);
        let (q, kt, v) = (Dense::zeros(m, 2), gen::random_dense(2, n, &mut rng), x.clone());
        let w = gen::random_dense(3, 2, &mut rng);

        // The four kernel entry points, directly.
        let rt = Runtime::new();
        let mut out = [Dense::zeros(m, 3)];
        spmm_execute_views_on(&rt, &a, &[&x], &mut out, &SpmmConfig::default())
            .unwrap_or_else(|e| panic!("{tag} spmm: {e}"));
        assert!(out[0].data().iter().all(|&c| c == 0.0), "{tag}");
        let mut edges = [Vec::new()];
        sddmm_execute_views_on(&rt, &a, &[(q.clone(), kt.clone())], &mut edges)
            .unwrap_or_else(|e| panic!("{tag} sddmm: {e}"));
        let mut heads = [Dense::zeros(m, 3)];
        fused_attention_views_on(&rt, &a, &[&q], &[&kt], &[&v], &mut heads)
            .unwrap_or_else(|e| panic!("{tag} fused attention: {e}"));
        assert!(heads[0].data().iter().all(|&c| c == 0.0), "{tag}");
        let sage = fused_sage_execute_on(&rt, &a, &x, &w)
            .unwrap_or_else(|e| panic!("{tag} fused sage: {e}"));
        assert_eq!((sage.rows(), sage.cols()), (m, 2), "{tag}");
        assert!(sage.data().iter().all(|&c| c == 0.0), "{tag}");

        // The same requests, served.
        let adj = Adjacency::new(a.clone());
        let engine = Engine::new(EngineConfig::default());
        let head = AttnHead { q: q.clone(), kt: kt.clone(), v };
        let served = engine.serve(&adj, Submission::spmm(x.clone())).and_then(OpOutput::into_dense);
        assert_eq!(served.map(|d| (d.rows(), d.cols())).expect(&tag), (m, 3));
        let served = engine.serve(&adj, Submission::sddmm(q, kt)).and_then(OpOutput::into_edges);
        assert_eq!(served.expect(&tag), Vec::<f32>::new());
        let served = engine
            .serve(&adj, Submission::fused_attention(vec![head]))
            .and_then(OpOutput::into_heads)
            .expect(&tag);
        assert_eq!((served.len(), served[0].rows(), served[0].cols()), (1, m, 3), "{tag}");
        let served =
            engine.serve(&adj, Submission::fused_sage(x, w)).and_then(OpOutput::into_dense);
        assert_eq!(served.map(|d| (d.rows(), d.cols())).expect(&tag), (m, 2));
        let stats = engine.stats();
        assert_eq!((stats.worker_panics, stats.failed, stats.completed), (0, 0, 4), "{tag}");
        assert_conserved(&engine);
    }
}
