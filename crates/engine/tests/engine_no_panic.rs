//! The no-panic boundary of the serving engine (ROADMAP 7(a)): whatever a
//! caller submits — any op, operand dimensions at and around the right
//! ones (0, 1, right, right ± 1), values with NaN and ±Inf, blocking or
//! non-blocking, with no deadline or one already past, barely ahead or far
//! ahead — and whatever edge delta it applies, in range or not, the engine
//! answers with a typed [`EngineError`] or an answer of the right shape,
//! and no worker panics.
//!
//! Cases run one after another, each on its own one-worker engine that is
//! dropped before the next starts, so only one engine's threads exist at a
//! time. An all-finite draw with valid shapes must also match the `f64`
//! oracle within its bound, `1e-4 · (1 + Σ|terms|)` per element.

use proptest::prelude::*;
use sparsetir_engine::{
    Adjacency, Engine, EngineConfig, EngineError, GraphDelta, OpOutput, OpRequest, RejectReason,
    Submission,
};
use sparsetir_kernels::prelude::AttnHead;
use sparsetir_smat::prelude::*;
use std::time::Duration;

#[path = "../../kernels/tests/oracle/mod.rs"]
mod oracle;

/// One drawn case; every field is a pick the body turns into operands.
#[derive(Debug, Clone)]
struct Case {
    /// 0 SpMM, 1 SDDMM, 2 fused attention, 3 fused SAGE.
    op: usize,
    /// Adjacency rows and columns.
    shape: (usize, usize),
    /// The free widths (`d`, `k`, `vfeat`, `hidden`) the op is built at.
    widths: (usize, usize),
    /// Per operand dimension: `None` keeps the right value, `Some(i)`
    /// replaces it with `[0, 1, right − 1, right + 1][i]`.
    dims: Vec<Option<usize>>,
    heads: usize,
    /// Inject NaN / ±Inf into the operands and the adjacency.
    poison: bool,
    blocking: bool,
    tune: bool,
    /// 0 none, 1 zero, 2 one nanosecond, 3 one second, 4 the longest
    /// [`Duration`].
    deadline: usize,
    seed: u64,
    /// `(row, col, upsert value or delete)`; endpoints are picks, `0..4`
    /// in range and `4..7` out of it (see [`endpoint`]).
    delta: Vec<(usize, usize, Option<f32>)>,
}

fn case() -> impl Strategy<Value = Case> {
    // Half the cases keep every dimension right; the rest move each one
    // off with probability 1/2.
    let picks = prop_oneof![
        Just(vec![None; 6]),
        proptest::collection::vec(prop_oneof![Just(None), (0..4usize).prop_map(Some)], 6..7),
    ];
    let delta_op = (
        0..7usize,
        0..7usize,
        prop_oneof![(-2.0f32..2.0f32).prop_map(Some), Just(Some(f32::NAN)), Just(None)],
    );
    (
        (0..4usize, (0..6usize, 0..6usize), (1..5usize, 1..5usize)),
        picks,
        (0..3usize, 0..2u8, 0..2u8, 0..5u8),
        (0..5usize, 0..u64::MAX),
        proptest::collection::vec(delta_op, 0..4),
    )
        .prop_map(
            |(
                (op, shape, widths),
                dims,
                (heads, poison, blocking, tune),
                (deadline, seed),
                delta,
            )| {
                Case {
                    op,
                    shape,
                    widths,
                    dims,
                    heads,
                    poison: poison == 1,
                    blocking: blocking == 1,
                    tune: tune == 0,
                    deadline,
                    seed,
                    delta,
                }
            },
        )
}

/// Operand dimension `i` of the case: the right value, or a pick off it.
fn dim(case: &Case, i: usize, right: usize) -> usize {
    match case.dims[i] {
        None => right,
        Some(pick) => [0, 1, right.saturating_sub(1), right + 1][pick],
    }
}

/// A delta endpoint against an axis of `len`: `0..4` in range (when the
/// axis has any), `4..7` just past it or at the far end of `u32`.
fn endpoint(pick: usize, len: usize) -> u32 {
    let len = len as u32;
    match pick {
        0..=3 if len > 0 => pick as u32 % len,
        0..=4 => len,
        5 => len + 1,
        _ => u32::MAX,
    }
}

fn dense(rows: usize, cols: usize, poison: bool, rng: &mut rand::rngs::SmallRng) -> Dense {
    use rand::Rng;
    let mut d = gen::random_dense(rows, cols, rng);
    if poison && !d.data().is_empty() {
        let at = rng.gen_range(0..d.data().len());
        d.data_mut()[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)];
    }
    d
}

fn adjacency(case: &Case, rng: &mut rand::rngs::SmallRng) -> Csr {
    use rand::Rng;
    let (rows, cols) = case.shape;
    let mut entries = Vec::new();
    if rows > 0 && cols > 0 {
        for _ in 0..rng.gen_range(0..rows * cols + 1) {
            entries.push((
                rng.gen_range(0..rows) as u32,
                rng.gen_range(0..cols) as u32,
                rng.gen_range(0.1f32..2.0),
            ));
        }
        if case.poison && rng.gen_range(0..2u8) == 0 {
            if let Some(e) = entries.first_mut() {
                e.2 = f32::NAN;
            }
        }
    }
    Csr::from_coo(&Coo::from_entries(rows, cols, entries).expect("in-bounds entries"))
}

/// The case's request and whether its shapes fit the adjacency.
fn request(case: &Case, a: &Csr, rng: &mut rand::rngs::SmallRng) -> (OpRequest, bool) {
    let (m, n) = (a.rows(), a.cols());
    let (w1, w2) = case.widths;
    let p = case.poison;
    match case.op {
        0 => {
            let x = dense(dim(case, 0, n), dim(case, 1, w1), p, rng);
            let valid = x.rows() == n;
            (OpRequest::Spmm(x), valid)
        }
        1 => {
            let x = dense(dim(case, 0, m), dim(case, 1, w1), p, rng);
            let y = dense(dim(case, 2, w1), dim(case, 3, n), p, rng);
            let valid = x.rows() == m && y.rows() == x.cols() && y.cols() == n;
            (OpRequest::Sddmm((x, y)), valid)
        }
        2 => {
            let (qr, qc) = (dim(case, 0, m), dim(case, 1, w1));
            let (kr, kc) = (dim(case, 2, w1), dim(case, 3, n));
            let (vr, vc) = (dim(case, 4, n), dim(case, 5, w2));
            let heads: Vec<AttnHead> = (0..case.heads)
                .map(|_| AttnHead {
                    q: dense(qr, qc, p, rng),
                    kt: dense(kr, kc, p, rng),
                    v: dense(vr, vc, p, rng),
                })
                .collect();
            let valid = heads.is_empty() || (qr == m && kr == qc && kc == n && vr == n);
            (OpRequest::FusedAttention(heads), valid)
        }
        _ => {
            let x = dense(dim(case, 0, n), dim(case, 1, w1), p, rng);
            let w = dense(dim(case, 2, w1), dim(case, 3, w2), p, rng);
            let valid = x.rows() == n && w.rows() == x.cols();
            (OpRequest::FusedSage((x, w)), valid)
        }
    }
}

fn finite(req: &OpRequest, a: &Csr) -> bool {
    let all = |d: &Dense| d.data().iter().all(|v| v.is_finite());
    a.values().iter().all(|v| v.is_finite())
        && match req {
            OpRequest::Spmm(x) => all(x),
            OpRequest::Sddmm((x, y)) | OpRequest::FusedSage((x, y)) => all(x) && all(y),
            OpRequest::FusedAttention(heads) => {
                heads.iter().all(|h| all(&h.q) && all(&h.kt) && all(&h.v))
            }
            _ => unreachable!("every served op is drawn"),
        }
}

/// Each expected output's `(rows, cols)` (SDDMM: `(nnz, 1)`) and oracle.
fn expected(req: &OpRequest, a: &Csr) -> Vec<((usize, usize), oracle::Oracle)> {
    match req {
        OpRequest::Spmm(x) => {
            vec![((a.rows(), x.cols()), oracle::spmm_f64(a, x.data(), x.cols()))]
        }
        OpRequest::Sddmm((x, y)) => {
            vec![((a.nnz(), 1), oracle::sddmm_f64(a, x.data(), y.data(), x.cols()))]
        }
        OpRequest::FusedAttention(heads) => heads
            .iter()
            .map(|h| {
                let (k, vfeat) = (h.q.cols(), h.v.cols());
                let want = oracle::attention_f64(a, h.q.data(), h.kt.data(), h.v.data(), k, vfeat);
                ((a.rows(), vfeat), want)
            })
            .collect(),
        OpRequest::FusedSage((x, w)) => {
            let want = oracle::sage_f64(a, x.data(), w.data(), x.cols(), w.cols());
            vec![((a.rows(), w.cols()), want)]
        }
        _ => unreachable!("every served op is drawn"),
    }
}

/// The answer's outputs as `((rows, cols), values)`, SDDMM as `(nnz, 1)`.
fn outputs(out: OpOutput) -> Vec<((usize, usize), Vec<f32>)> {
    let dense = |d: Dense| ((d.rows(), d.cols()), d.data().to_vec());
    match out {
        OpOutput::Dense(d) => vec![dense(d)],
        OpOutput::Edges(e) => vec![((e.len(), 1), e)],
        OpOutput::Heads(hs) => hs.into_iter().map(dense).collect(),
    }
}

fn one_worker() -> Engine {
    Engine::new(EngineConfig { workers: 1, queue_depth: 4 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_submission_or_delta_is_a_typed_error_or_a_right_shaped_answer(case in case()) {
        let mut rng = gen::rng(case.seed);
        let a = adjacency(&case, &mut rng);
        let (req, valid) = request(&case, &a, &mut rng);
        let checked = valid && finite(&req, &a);
        let want = if valid { expected(&req, &a) } else { Vec::new() };
        let engine = one_worker();
        let adj = Adjacency::new(a.clone());
        let mut sub = Submission::new(req).tune(case.tune);
        match case.deadline {
            1 => sub = sub.deadline(Duration::ZERO),
            2 => sub = sub.deadline(Duration::from_nanos(1)),
            3 => sub = sub.deadline(Duration::from_secs(1)),
            4 => sub = sub.deadline(Duration::MAX),
            _ => {}
        }
        let submitted =
            if case.blocking { engine.submit(&adj, sub) } else { engine.try_submit(&adj, sub) };
        let answer = submitted.and_then(sparsetir_engine::Ticket::wait);
        match answer {
            Err(EngineError::Shape(_)) => prop_assert!(!valid, "valid request refused: {case:?}"),
            Err(EngineError::Rejected { reason }) => {
                prop_assert!(valid, "invalid request rejected ({reason}) before validation");
                prop_assert!(case.deadline != 0, "undeadlined request rejected ({reason})");
                if case.deadline == 1 {
                    prop_assert_eq!(reason, RejectReason::Expired);
                }
            }
            Err(e) => prop_assert!(false, "unexpected error {e} for {case:?}"),
            Ok(out) => {
                prop_assert!(valid, "invalid request answered: {case:?}");
                prop_assert!(case.deadline != 1, "an expired request was served");
                let got = outputs(out);
                prop_assert_eq!(got.len(), want.len());
                for ((shape, values), (want_shape, oracle)) in got.iter().zip(&want) {
                    prop_assert_eq!(shape, want_shape);
                    if checked {
                        if let Err(e) = oracle.check(values) {
                            prop_assert!(false, "{e} for {case:?}");
                        }
                    }
                }
            }
        }

        let mut delta = GraphDelta::new();
        let mut in_range = true;
        for &(r, c, value) in &case.delta {
            let (row, col) = (endpoint(r, a.rows()), endpoint(c, a.cols()));
            in_range &= (row as usize) < a.rows() && (col as usize) < a.cols();
            match value {
                Some(v) => delta.upsert(row, col, v),
                None => delta.delete(row, col),
            };
        }
        match engine.apply_delta(&adj, &delta) {
            Ok(next) => {
                prop_assert!(in_range, "out-of-range delta applied: {case:?}");
                prop_assert_eq!(next.version(), adj.version() + 1);
                prop_assert_eq!((next.csr().rows(), next.csr().cols()), (a.rows(), a.cols()));
            }
            Err(EngineError::Shape(_)) => prop_assert!(!in_range, "in-range delta refused"),
            Err(e) => prop_assert!(false, "unexpected delta error {e} for {case:?}"),
        }
        engine.quiesce_retunes();
        let stats = engine.stats();
        prop_assert_eq!(stats.worker_panics, 0);
        prop_assert!(stats.conserved(), "{:?}", stats);
        drop(engine);
    }
}

/// Regression: a deadline too long for the clock (`Duration::MAX`) used to
/// overflow `Instant + Duration` inside `submit` and panic on the caller's
/// thread. It is no deadline at all: the request is served.
#[test]
fn a_deadline_past_the_clock_s_range_never_expires() {
    let a = gen::random_csr(6, 6, 0.4, &mut gen::rng(3));
    let x = gen::random_dense(6, 2, &mut gen::rng(4));
    let engine = one_worker();
    let adj = Adjacency::new(a.clone());
    for blocking in [true, false] {
        let sub = Submission::spmm(x.clone()).deadline(Duration::MAX);
        let ticket = if blocking { engine.submit(&adj, sub) } else { engine.try_submit(&adj, sub) };
        let got = ticket.and_then(sparsetir_engine::Ticket::wait_dense).expect("served");
        assert!(got.approx_eq(&a.spmm(&x).expect("reference"), 1e-5));
    }
    assert_eq!(engine.stats().worker_panics, 0);
    assert!(engine.stats().conserved(), "{:?}", engine.stats());
}

/// Regression: a request whose output cannot exist is a `Shape` error at
/// submit. On a 2 × 0 adjacency every operand below holds no element, but
/// the result (SpMM's `C`, an attention head's `Out`, SAGE's result) or
/// SAGE's `Agg` scratch would be `2 × width`, a count that overflows
/// `usize` or bytes no `Vec<f32>` can hold. Before, `submit` admitted them
/// and the launch panicked allocating the output.
#[test]
fn an_output_that_cannot_exist_is_a_shape_error_at_submit() {
    let a = Csr::from_coo(&Coo::new(2, 0));
    let huge = usize::MAX / 2 + 1;
    let empty = |rows, cols| Dense::from_vec(rows, cols, Vec::new()).expect("no elements");
    let engine = one_worker();
    let adj = Adjacency::new(a.clone());
    let requests = [
        ("spmm count", Submission::spmm(empty(0, huge))),
        ("spmm bytes", Submission::spmm(empty(0, usize::MAX / 4))),
        (
            "attention",
            Submission::fused_attention(vec![AttnHead {
                q: Dense::zeros(2, 1),
                kt: empty(1, 0),
                v: empty(0, huge),
            }]),
        ),
        ("sage agg", Submission::fused_sage(empty(0, huge), empty(huge, 0))),
        ("sage result", Submission::fused_sage(empty(0, 0), empty(0, huge))),
    ];
    for (what, sub) in requests {
        let got = engine.serve(&adj, sub);
        assert!(matches!(got, Err(EngineError::Shape(_))), "{what}: {got:?}");
    }
    let stats = engine.stats();
    assert_eq!((stats.worker_panics, stats.batches), (0, 0), "{stats:?}");
    assert!(stats.conserved(), "{stats:?}");
    // The entry point applies the same rule before it allocates.
    let rt = sparsetir_ir::exec::Runtime::new();
    let sage =
        sparsetir_kernels::prelude::fused_sage_execute_on(&rt, &a, &empty(0, 0), &empty(0, huge));
    assert!(sage.is_err());
}
