//! SparseTIR SpMM kernels (§4.2.1): the CSR kernel (`SparseTIR(no-hyb)`)
//! and the composable `hyb(c, k)` kernel (`SparseTIR(hyb)`), lowered to
//! Stage III functions that compile and launch. What a launch runs is the
//! unscheduled row walk of either; the GE-SpMM-style GPU schedule is
//! [`csr_spmm_ir`]'s, which feeds CUDA emission, and [`CsrSpmmParams`]
//! are that schedule's parameters, priced by the GPU cost model.

use crate::spec::KernelSpec;
use sparsetir_core::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_smat::prelude::*;

/// GPU schedule parameters of the CSR SpMM kernel (the knobs of the
/// paper's schedule template), which the GPU cost model prices. The CPU
/// kernel does not read them: a launch runs the unscheduled row walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrSpmmParams {
    /// Rows handled per thread block.
    pub rows_per_block: usize,
    /// Vector load width (`vectorize`).
    pub vec_width: usize,
    /// Partial results cached in registers (`cache_write`).
    pub register_cache: bool,
    /// Threads per block.
    pub threads: usize,
}

impl Default for CsrSpmmParams {
    fn default() -> Self {
        // The GE-SpMM defaults the paper builds on.
        CsrSpmmParams { rows_per_block: 4, vec_width: 4, register_cache: true, threads: 128 }
    }
}

/// One point of the joint SpMM format × schedule space of §2: the `c` of
/// `hyb(c, k)` (`None` = no format decomposition), the bucket exponent
/// `k`, and the GPU schedule parameters. The autotuner searches over
/// these; [`prepare_spmm`] and [`spmm_execute_views_on`] compile the format
/// a chosen configuration names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmmConfig {
    /// Column partitions `c` (`None` = no format decomposition).
    pub col_parts: Option<usize>,
    /// Bucket exponent `k` (ignored without decomposition).
    pub bucket_k: u32,
    /// GPU schedule parameters (not read by the CPU kernel).
    pub params: CsrSpmmParams,
}

impl Default for SpmmConfig {
    fn default() -> SpmmConfig {
        SpmmConfig::default_csr()
    }
}

impl SpmmConfig {
    /// The untuned baseline: plain CSR with the default GE-SpMM schedule.
    #[must_use]
    pub fn default_csr() -> SpmmConfig {
        SpmmConfig { col_parts: None, bucket_k: 0, params: CsrSpmmParams::default() }
    }

    /// Compact human-readable label with the GPU schedule, e.g.
    /// `csr/rpb4/vw4` or `hyb(c=2,k=3)/rpb4/vw4`: what the simulator prices.
    #[must_use]
    pub fn label(&self) -> String {
        let (rpb, vw) = (self.params.rows_per_block, self.params.vec_width);
        format!("{}/rpb{rpb}/vw{vw}", self.format_label())
    }

    /// The format alone, e.g. `csr` or `hyb(c=2,k=3)`: all the CPU kernel
    /// reads of a config, so two configs with one format label compile one
    /// kernel.
    #[must_use]
    pub fn format_label(&self) -> String {
        match self.col_parts {
            None => "csr".to_string(),
            Some(c) => format!("hyb(c={c},k={})", self.bucket_k),
        }
    }
}

/// Build, lower and GPU-schedule the CSR SpMM for codegen (Figure 3 →
/// Figure 9/10 pipeline): rows bound to `blockIdx.x`, the feature loop
/// split by `min(32, feat)` for `threadIdx.x`.
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn csr_spmm_ir(a: &Csr, feat: usize) -> Result<PrimFunc, Box<dyn std::error::Error>> {
    let program = spmm_program(a.rows(), a.cols(), a.nnz(), feat);
    let f = lower(&program)?;
    let mut sch = Schedule::new(f);
    sch.bind("i", ThreadAxis::BlockIdxX)?;
    let (_, ki) = sch.split("k", 32.min(feat as i64).max(1))?;
    sch.bind(&ki, ThreadAxis::ThreadIdxX)?;
    Ok(sch.into_func())
}

/// A lowered SpMM ready for repeated compiled execution: the Stage III
/// function plus its tensor bindings, with `C` zero-initialized.
pub struct PreparedSpmm {
    /// Lowered function.
    pub func: PrimFunc,
    /// Tensor bindings for `exec_func` / `CompiledKernel::run`.
    pub bindings: Bindings,
    /// Output rows.
    pub rows: usize,
    /// Output columns (feature width).
    pub feat: usize,
}

impl PreparedSpmm {
    /// Reset the output buffer to zeros (between repeated timed runs).
    pub fn reset_output(&mut self) {
        bind_zeros(&mut self.bindings, "C", self.rows * self.feat);
    }
}

/// What `config` compiles to on `a` at feature width `feat`, and for the
/// hyb arm the decomposition it is compiled against: its spec lists the
/// buckets `Hyb::from_csr` found, and their arrays are what a launch binds.
pub(crate) fn spmm_spec(
    a: &Csr,
    feat: usize,
    config: &SpmmConfig,
) -> Result<(KernelSpec, Option<Hyb>), Box<dyn std::error::Error>> {
    let Some(c) = config.col_parts else {
        return Ok((KernelSpec::CsrSpmm { a: a.into(), feat }, None));
    };
    let hyb = Hyb::from_csr(a, c, config.bucket_k)?;
    let buckets: Vec<_> = hyb_buckets(&hyb).map(|(pi, b)| (pi, b.width, b.len())).collect();
    // No non-zero, no bucket: the decomposition rewrites nothing, and what
    // is left is the CSR kernel.
    if buckets.is_empty() {
        return Ok((KernelSpec::CsrSpmm { a: a.into(), feat }, None));
    }
    Ok((KernelSpec::HybSpmm { a: a.into(), feat, buckets }, Some(hyb)))
}

/// Lower `config` into the Stage III SpMM function at feature width
/// `feat`, with only the *structure* operands (CSR index buffers, `A`
/// values, hyb buckets) bound, as whole tensors. The operand `B` and output
/// `C` stay unbound for the caller to supply ([`prepare_spmm`]).
///
/// # Errors
/// Propagates decomposition and lowering errors.
pub fn prepare_spmm_structure(
    a: &Csr,
    feat: usize,
    config: &SpmmConfig,
) -> Result<(PrimFunc, Bindings), Box<dyn std::error::Error>> {
    let (spec, hyb) = spmm_spec(a, feat, config)?;
    let mut bindings = Bindings::new();
    // Dropped once its buckets are copied: held through lowering, it adds to the peak.
    if let Some(hyb) = hyb {
        for (pi, bucket) in hyb_buckets(&hyb) {
            bind_bucket(&mut bindings, &bucket_tag(pi, bucket.width), bucket);
        }
    }
    bind_csr(&mut bindings, "A", "J", a);
    Ok((spec.build_for(a)?, bindings))
}

/// Lower `config` into an executable kernel for `a · x`: the CSR kernel,
/// or the `hyb(c, k)` decomposition via `decompose_format` bucket rewrites
/// (the Figure 11 pipeline), bound and ready to run.
///
/// # Errors
/// Propagates decomposition and lowering errors.
pub fn prepare_spmm(
    a: &Csr,
    x: &Dense,
    config: &SpmmConfig,
) -> Result<PreparedSpmm, Box<dyn std::error::Error>> {
    let feat = x.cols();
    let (func, mut bindings) = prepare_spmm_structure(a, feat, config)?;
    bind_dense(&mut bindings, "B", x);
    bind_zeros(&mut bindings, "C", a.rows() * feat);
    Ok(PreparedSpmm { func, bindings, rows: a.rows(), feat })
}

/// The SpMM request-shape rule — the one check behind a serving
/// engine's admission and [`spmm_execute_views_on`]: the feature matrix
/// has `a.cols()` rows, and the `a.rows() × width` result can be
/// allocated.
///
/// # Errors
/// Describes the mismatch.
pub fn check_shapes(a: &Csr, x: &Dense) -> Result<(), String> {
    if x.rows() != a.cols() {
        return Err(format!(
            "feature matrix has {} rows, adjacency has {} cols",
            x.rows(),
            a.cols()
        ));
    }
    crate::check_output("output", a.rows(), x.cols())
}

/// Execute a batch of SpMM requests — the only executable SpMM entry
/// point, for one request or many: the one-rider kernel at the batch's
/// width is looked up and the adjacency bound once, then the kernel runs
/// once per request with `B` and `C` bound as flat slices of that
/// request's operand and output, writing `outs[i]` (which must be
/// `a.rows() × xs[i].cols()`, zero-filled) in place. All requests share
/// one width; an empty or zero-width batch launches nothing. Each
/// request's launch is the one it would make alone, so results are
/// bit-identical to running it alone, and a rider costs what a solo launch
/// does.
///
/// # Errors
/// Rejects `xs`/`outs` of different lengths, an operand whose row count
/// differs from `a.cols()`, mixed widths and mis-sized outputs, all before
/// anything is written; propagates lowering and execution errors.
pub fn spmm_execute_views_on(
    rt: &Runtime,
    a: &Csr,
    xs: &[&Dense],
    outs: &mut [Dense],
    config: &SpmmConfig,
) -> Result<(), Box<dyn std::error::Error>> {
    if xs.len() != outs.len() {
        return Err(format!("spmm: {} operands for {} outputs", xs.len(), outs.len()).into());
    }
    let width = xs.first().map_or(0, |x| x.cols());
    for (i, (x, out)) in xs.iter().zip(outs.iter()).enumerate() {
        check_shapes(a, x).map_err(|e| format!("spmm request {i}: {e}"))?;
        if x.cols() != width {
            let w = x.cols();
            return Err(
                format!("spmm request {i}: width {w} differs from request 0's {width}").into()
            );
        }
        if (out.rows(), out.cols()) != (a.rows(), width) {
            let (r, c) = (out.rows(), out.cols());
            return Err(
                format!("spmm request {i}: output of {r}x{c} for {}x{width}", a.rows()).into()
            );
        }
    }
    if width == 0 {
        return Ok(());
    }
    let (spec, hyb) = spmm_spec(a, width, config)?;
    let kernel = spec.compile_on(rt)?;
    let mut launch = LaunchBindings::new(rt.pool(), a, hyb.as_ref(), []);
    let mut views = launch.views(&kernel, []);
    for (x, out) in xs.iter().zip(outs.iter_mut()) {
        views.bind_slice("B", x.data());
        views.bind_slice_mut("C", out.data_mut());
        kernel.run_views(&mut views)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;
    use std::collections::HashMap;

    /// The whole-tensor oracle: `prepare_spmm` + `CompiledKernel::run`
    /// (through the global kernel cache).
    fn run_whole(a: &Csr, x: &Dense, config: &SpmmConfig) -> Dense {
        let mut prepared = prepare_spmm(a, x, config).unwrap();
        exec_func(&prepared.func, &HashMap::new(), &mut prepared.bindings).unwrap();
        read_dense(&prepared.bindings, "C", a.rows(), x.cols())
    }

    /// One view launch over `xs` into fresh zeroed outputs.
    fn run_views(
        a: &Csr,
        xs: &[Dense],
        config: &SpmmConfig,
    ) -> Result<Vec<Dense>, Box<dyn std::error::Error>> {
        let mut outs: Vec<Dense> = xs.iter().map(|x| Dense::zeros(a.rows(), x.cols())).collect();
        let refs: Vec<&Dense> = xs.iter().collect();
        spmm_execute_views_on(&Runtime::new(), a, &refs, &mut outs, config)?;
        Ok(outs)
    }

    /// The format label names what the CPU kernel is built from: two CSR
    /// configs with different GPU schedules print one label and make one
    /// kernel spec, while `label` keeps the schedule the simulator prices.
    #[test]
    fn format_labels_name_the_kernel_the_cpu_compiles() {
        let a = gen::random_csr(12, 10, 0.25, &mut gen::rng(6));
        let csr = SpmmConfig::default_csr();
        let wide = SpmmConfig {
            params: CsrSpmmParams { rows_per_block: 1, vec_width: 1, ..csr.params },
            ..csr
        };
        assert_eq!((csr.label(), wide.label()), ("csr/rpb4/vw4".into(), "csr/rpb1/vw1".into()));
        assert_eq!((csr.format_label(), wide.format_label()), ("csr".into(), "csr".into()));
        assert_eq!(spmm_spec(&a, 4, &csr).unwrap().0, spmm_spec(&a, 4, &wide).unwrap().0);
        let hyb = SpmmConfig { col_parts: Some(1), bucket_k: 3, ..csr };
        assert_eq!(hyb.format_label(), "hyb(c=1,k=3)");
        assert_eq!(hyb.label(), "hyb(c=1,k=3)/rpb4/vw4");
    }

    #[test]
    fn ir_execution_matches_reference() {
        let mut rng = gen::rng(5);
        let a = gen::random_csr(12, 10, 0.25, &mut rng);
        let x = gen::random_dense(10, 6, &mut rng);
        let got = run_whole(&a, &x, &SpmmConfig::default_csr());
        assert!(got.approx_eq(&a.spmm(&x).unwrap(), 1e-4));
    }

    #[test]
    fn tuned_execute_matches_reference_on_both_arms() {
        let mut rng = gen::rng(41);
        let a = gen::random_csr(24, 20, 0.2, &mut rng);
        let x = gen::random_dense(20, 6, &mut rng);
        let want = a.spmm(&x).unwrap();
        for config in [
            SpmmConfig::default_csr(),
            SpmmConfig {
                col_parts: None,
                bucket_k: 0,
                params: CsrSpmmParams { rows_per_block: 2, vec_width: 2, ..Default::default() },
            },
            SpmmConfig { col_parts: Some(2), bucket_k: 3, params: CsrSpmmParams::default() },
            SpmmConfig { col_parts: Some(4), bucket_k: 1, params: CsrSpmmParams::default() },
        ] {
            let got = run_views(&a, std::slice::from_ref(&x), &config).unwrap().remove(0);
            assert!(got.approx_eq(&want, 1e-3), "config {}", config.label());
        }
    }

    #[test]
    fn batched_execute_is_bit_identical_to_sequential() {
        let mut rng = gen::rng(51);
        let a = gen::random_csr(20, 16, 0.25, &mut rng);
        for config in [
            SpmmConfig::default_csr(),
            SpmmConfig { col_parts: Some(2), bucket_k: 2, params: CsrSpmmParams::default() },
        ] {
            // A batch of three riders at each width, the 0 and 1 edge cases
            // included, against one whole-tensor run per rider.
            for w in [3usize, 0, 1, 5] {
                let xs: Vec<Dense> =
                    (0..3).map(|_| gen::random_dense(a.cols(), w, &mut rng)).collect();
                let batched = run_views(&a, &xs, &config).unwrap();
                for (x, got) in xs.iter().zip(&batched) {
                    let want = run_whole(&a, x, &config);
                    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
                    for (g, w) in got.data().iter().zip(want.data()) {
                        assert_eq!(g.to_bits(), w.to_bits(), "config {}", config.label());
                    }
                    assert!(got.approx_eq(&a.spmm(x).unwrap(), 1e-4), "config {}", config.label());
                }
            }
        }
    }

    #[test]
    fn batched_execute_handles_empty_batches() {
        let mut rng = gen::rng(52);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        // No requests at all.
        assert!(run_views(&a, &[], &SpmmConfig::default_csr()).unwrap().is_empty());
        // All-zero-width requests skip the kernel launch entirely.
        let empty = Dense::zeros(a.cols(), 0);
        let rt = Runtime::new();
        let mut outs = vec![Dense::zeros(a.rows(), 0), Dense::zeros(a.rows(), 0)];
        spmm_execute_views_on(&rt, &a, &[&empty, &empty], &mut outs, &SpmmConfig::default_csr())
            .unwrap();
        assert_eq!(rt.compilations(), 0, "nothing to launch, nothing to compile");
    }

    #[test]
    fn batched_execute_rejects_mismatched_rows() {
        let mut rng = gen::rng(53);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        let good = gen::random_dense(8, 2, &mut rng);
        let bad = gen::random_dense(9, 2, &mut rng);
        let config = SpmmConfig::default_csr();
        let err = run_views(&a, &[good.clone(), bad], &config).expect_err("row mismatch");
        assert!(err.to_string().contains("request 1"), "{err}");
        // Fewer outputs than operands is an error, not an index panic.
        let err = spmm_execute_views_on(&Runtime::new(), &a, &[&good, &good], &mut [], &config)
            .expect_err("length mismatch");
        assert!(err.to_string().contains("2 operands for 0 outputs"), "{err}");
    }

    /// One batch runs one kernel at one width: a rider of another width,
    /// and an output of the wrong shape, are refused before anything
    /// compiles or any output is written.
    #[test]
    fn batched_execute_refuses_mixed_widths_and_missized_outputs() {
        let mut rng = gen::rng(55);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        let (narrow, wide) = (gen::random_dense(8, 2, &mut rng), gen::random_dense(8, 3, &mut rng));
        let rt = Runtime::new();
        let config = SpmmConfig::default_csr();
        let mut outs = vec![Dense::zeros(8, 2), Dense::zeros(8, 3)];
        let err = spmm_execute_views_on(&rt, &a, &[&narrow, &wide], &mut outs, &config)
            .expect_err("mixed widths");
        assert!(err.to_string().contains("request 1: width 3 differs from request 0's 2"), "{err}");
        for (rows, cols) in [(8, 3), (7, 2), (9, 2)] {
            let mut outs = vec![Dense::from_fn(8, 2, |_, _| 9.0), Dense::zeros(rows, cols)];
            let err = spmm_execute_views_on(&rt, &a, &[&narrow, &narrow], &mut outs, &config)
                .expect_err("mis-sized output");
            let says = format!("request 1: output of {rows}x{cols} for 8x2");
            assert!(err.to_string().contains(&says), "{err}");
            assert!(
                outs[0].data().iter().all(|&v| v == 9.0),
                "request 0 written before the refusal"
            );
        }
        assert_eq!(rt.compilations(), 0, "refused before anything compiles");
    }

    #[test]
    fn out_of_range_bucket_exponent_is_an_error_not_a_panic() {
        let mut rng = gen::rng(54);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        let x = gen::random_dense(8, 2, &mut rng);
        let config =
            SpmmConfig { col_parts: Some(1), bucket_k: 64, params: CsrSpmmParams::default() };
        let err = run_views(&a, std::slice::from_ref(&x), &config).expect_err("k = 64");
        assert!(err.to_string().contains("bucket exponent 64"), "{err}");
        // So is a partition count past the last column (was a capacity
        // overflow allocating `c` partition tables).
        let wide = SpmmConfig { col_parts: Some(usize::MAX), ..SpmmConfig::default_csr() };
        let err = run_views(&a, std::slice::from_ref(&x), &wide).expect_err("c = usize::MAX");
        assert!(err.to_string().contains("column partitions"), "{err}");
    }

    #[test]
    fn prepared_spmm_is_idempotent_across_runs() {
        // The measured evaluator reuses one prepared kernel across warmup
        // and timed repeats; with the output reset, every run must agree.
        let mut rng = gen::rng(43);
        let a = gen::random_csr(16, 16, 0.25, &mut rng);
        let x = gen::random_dense(16, 4, &mut rng);
        let config =
            SpmmConfig { col_parts: Some(2), bucket_k: 2, params: CsrSpmmParams::default() };
        let mut prepared = prepare_spmm(&a, &x, &config).unwrap();
        let scalars = HashMap::new();
        exec_func(&prepared.func, &scalars, &mut prepared.bindings).unwrap();
        let first = read_dense(&prepared.bindings, "C", 16, 4);
        prepared.reset_output();
        exec_func(&prepared.func, &scalars, &mut prepared.bindings).unwrap();
        let second = read_dense(&prepared.bindings, "C", 16, 4);
        assert_eq!(first, second);
        assert!(first.approx_eq(&a.spmm(&x).unwrap(), 1e-3));
    }

    /// The GPU schedule parameters price a GPU launch and do not reach the
    /// CPU kernel: every CSR configuration compiles the one row walk.
    #[test]
    fn schedule_parameters_do_not_reach_the_cpu_kernel() {
        let mut rng = gen::rng(44);
        let a = gen::random_csr(32, 32, 0.1, &mut rng);
        let params = [
            CsrSpmmParams::default(),
            CsrSpmmParams { rows_per_block: 8, ..Default::default() },
            CsrSpmmParams { vec_width: 1, threads: 32, ..Default::default() },
        ];
        let funcs = params.map(|params| {
            let config = SpmmConfig { params, ..SpmmConfig::default_csr() };
            prepare_spmm_structure(&a, 16, &config).unwrap().0
        });
        let printed = funcs.map(|f| print_func(&f));
        assert!(printed.iter().all(|p| *p == printed[0]), "{}", printed[0]);
    }
}

#[cfg(test)]
mod crosscheck_tests {
    use super::*;
    use sparsetir_smat::gen;
    use std::collections::HashMap;

    /// The fusion pass must recognize the SpMM inner loops: the CSR
    /// schedule's feature loop fuses to one `AxpyLanes`, and the hyb
    /// decomposition fuses its init nest (`FillLanes`) plus one
    /// `AxpyLanes` per non-empty bucket — all picked up transparently
    /// through the global kernel cache.
    #[test]
    fn spmm_inner_loops_fuse_to_microkernels() {
        let mut rng = gen::rng(91);
        let a = gen::random_csr(48, 40, 0.15, &mut rng);
        let x = gen::random_dense(40, 8, &mut rng);

        let f = csr_spmm_ir(&a, 8).unwrap();
        let kernel = Runtime::global().compile(&f).unwrap();
        assert_eq!(kernel.fused_kinds(), vec!["AxpyLanes"]);

        let config =
            SpmmConfig { col_parts: Some(2), bucket_k: 2, params: CsrSpmmParams::default() };
        let prepared = prepare_spmm(&a, &x, &config).unwrap();
        let hyb_kernel = Runtime::global().compile(&prepared.func).unwrap();
        let kinds = hyb_kernel.fused_kinds();
        assert!(kinds.contains(&"FillLanes"), "hyb init nest must fuse: {kinds:?}");
        assert!(kinds.iter().filter(|k| **k == "AxpyLanes").count() >= 2, "{kinds:?}");
    }

    /// How many `super.*` lane loops of `listing` do *not* sit directly
    /// under a `nest.*` head (binds of unit-trip loops in between are
    /// seen through, as the nest sees through them; so is the nest's own
    /// `entry:` line).
    fn lane_loops_outside_a_nest(listing: &str) -> usize {
        let ins: Vec<&str> = listing
            .lines()
            .filter_map(|l| l.split_once("  ").map(|(_, i)| i.trim_start()))
            .filter(|i| !i.starts_with("entry:"))
            .collect();
        let under_nest = |at: usize| {
            let head =
                ins[..at].iter().rev().find(|i| !i.starts_with("bind") && !i.starts_with("mov"));
            head.is_some_and(|i| i.starts_with("nest."))
        };
        (0..ins.len()).filter(|&at| ins[at].starts_with("super.") && !under_nest(at)).count()
    }

    /// Check a fresh compilation `kernel` of the function behind `listing`
    /// after its launches: its row nests took the fast path. `entries` nest
    /// entries taking `trips` trips between them, every entry — a nest
    /// outside any row loop too — taken by a row block, every trip by the
    /// block's trip loop, none handed to the generic loop.
    fn assert_fast_path(
        kernel: &CompiledKernel,
        (entries, trips): (u64, u64),
        what: &str,
    ) -> String {
        let listing = kernel.disassemble();
        let nests = listing.lines().filter(|l| l.contains("  nest.")).count();
        let programs = listing.lines().filter(|l| l.trim_start().starts_with("entry:")).count();
        assert_eq!(programs, nests, "{what}: every nest has an entry program\n{listing}");
        let got = kernel.nest_counts();
        assert_eq!(
            (got.entries, got.blocked, got.handovers, got.trips, got.stepped),
            (entries, entries, 0, trips, trips),
            "{what}: {got:?}\n{listing}"
        );
        listing
    }

    /// The layout of every row block of `listing`, in order (`layout=` on
    /// its `rows` line).
    fn layouts(listing: &str) -> Vec<&str> {
        let rows = listing.lines().filter(|l| l.contains("  rows "));
        rows.map(|l| l.rsplit_once("layout=").map_or("none", |(_, layout)| layout)).collect()
    }

    /// [`assert_fast_path`] after launching `f` on whole tensors.
    fn launch_blocked(
        f: &PrimFunc,
        tensors: &mut Bindings,
        want: (u64, u64),
        what: &str,
    ) -> String {
        let kernel = CompiledKernel::compile(f).unwrap();
        kernel.run(&HashMap::new(), tensors).unwrap();
        assert_fast_path(&kernel, want, what)
    }

    /// What the served path compiles keeps its row nests, and a launch
    /// takes every entry of them in a row block and every trip in the
    /// block's trip loop: the CSR kernel (narrow, served and wide widths;
    /// an even row count and an odd one — one row loop either way, no
    /// guard; whole tensors, and `B` / `C` bound as the views of one
    /// request and of a batch of eight), every bucket of
    /// `hyb(c = 2, k = 3)` plus the `C = 0` init nest (a nest outside any
    /// row loop: a block of one entry), the SDDMM for one rider and a batch
    /// of three, each on a power-law graph, fused attention for one head
    /// (five nests) and three, and fused SAGE. The batches run the
    /// one-rider kernel once per rider, so they count what that many solo
    /// launches would. A width-1 bucket is a nest of one trip: its
    /// unit-trip column loop stays a loop, whose entry program loads the
    /// row's column and row id, so its rows run in a block like any
    /// wider bucket's. A
    /// schedule change that silently drops back to a prologue per non-zero,
    /// or a binding kind a block does not cover, fails here, not only in
    /// `stbench`. Every CSR row loop runs on the `csr` layout (its
    /// `indptr`, position and column in locals); SAGE's transform and
    /// `hyb`'s buckets, whose trip counts are constants, on `planned`.
    #[test]
    fn served_kernels_keep_their_row_nests() {
        let power_law = |rows: usize| {
            let mut rng = gen::rng(92 + rows as u64);
            gen::random_csr_with_row_lengths(
                rows,
                48,
                |r| {
                    use rand::Rng;
                    let u: f64 = r.gen_range(0.0..1.0);
                    ((1.0 / (u + 0.05)) as usize).min(20)
                },
                &mut rng,
            )
        };
        let nests = |l: &str, kind: &str| l.lines().filter(|i| i.contains(kind)).count();
        let mut rng = gen::rng(93);
        let mut operands = |a: &Csr, d: usize, structure: &mut Bindings| {
            bind_dense(structure, "B", &gen::random_dense(a.cols(), d, &mut rng));
            bind_zeros(structure, "C", a.rows() * d);
        };

        for rows in [64usize, 61] {
            let a = power_law(rows);
            assert!((0..rows).any(|r| a.row_nnz(r) == 0) && (0..rows).any(|r| a.row_nnz(r) > 8));
            let want = (rows as u64, a.nnz() as u64);
            for d in [4usize, 16, 128] {
                let config = SpmmConfig::default_csr();
                let (f, mut tensors) = prepare_spmm_structure(&a, d, &config).unwrap();
                operands(&a, d, &mut tensors);
                let what = format!("csr, {rows} rows, d = {d}");
                let l = launch_blocked(&f, &mut tensors, want, &what);
                assert_eq!((nests(&l, "nest.axpy"), lane_loops_outside_a_nest(&l)), (1, 0), "{l}");
                // One loop over the rows, no guard.
                assert_eq!(layouts(&l), ["csr"], "{l}");
                assert!(l.contains("gather=@"), "the column index is the nest's gather\n{l}");
                assert!(!l.contains("br."), "no branch\n{l}");
            }
            // As served: `B` and `C` the views of one request, and of eight
            // run back to back, each entering the nest once per row.
            for batch in [1usize, 8] {
                let (d, rt) = (16, Runtime::new());
                let xs: Vec<Dense> =
                    (0..batch).map(|_| gen::random_dense(a.cols(), d, &mut gen::rng(94))).collect();
                let refs: Vec<&Dense> = xs.iter().collect();
                let mut outs = vec![Dense::zeros(rows, d); batch];
                let config = SpmmConfig::default_csr();
                spmm_execute_views_on(&rt, &a, &refs, &mut outs, &config).unwrap();
                let (spec, _) = spmm_spec(&a, d, &config).unwrap();
                let kernel = spec.compile_on(&rt).unwrap();
                assert_eq!(rt.compilations(), 1, "the kernel the launch ran");
                let what = format!("csr views, {rows} rows, batch of {batch}");
                let riders = batch as u64;
                let l = assert_fast_path(&kernel, (riders * want.0, riders * want.1), &what);
                assert_eq!(layouts(&l), ["csr"], "{l}");
                assert!(!l.contains("br."), "no branch\n{l}");
            }
        }

        let a = power_law(64);
        let config =
            SpmmConfig { col_parts: Some(2), bucket_k: 3, params: CsrSpmmParams::default() };
        let (f, mut tensors) = prepare_spmm_structure(&a, 16, &config).unwrap();
        let buckets: Vec<String> =
            tensors.keys().filter(|k| k.starts_with("A_hyb_")).cloned().collect();
        assert!(
            buckets.iter().any(|b| b.ends_with("_w1"))
                && buckets.iter().any(|b| !b.ends_with("_w1")),
            "fixture has width-1 and wider buckets"
        );
        // One entry per row of every bucket (`A_hyb_<tag>` holds
        // `rows × width` values, each a trip; a width-1 row is one entry of
        // one trip), and one of the init nest (a trip per row of `C`).
        let width_of = |name: &str| name.rsplit_once("_w").unwrap().1.parse::<usize>().unwrap();
        let slots = |b: &String| tensors[b].as_f32().len();
        let entries = 1 + buckets.iter().map(|b| slots(b) / width_of(b)).sum::<usize>() as u64;
        let trips = (a.rows() + buckets.iter().map(slots).sum::<usize>()) as u64;
        operands(&a, 16, &mut tensors);
        let l = launch_blocked(&f, &mut tensors, (entries, trips), "hyb(c = 2, k = 3)");
        assert_eq!(nests(&l, "nest.axpy"), buckets.len(), "{l}");
        assert_eq!(nests(&l, "nest.fill"), 1, "{l}");
        assert_eq!(lane_loops_outside_a_nest(&l), 0, "{l}");
        // A bucket's rows have a constant trip count (its width), no row
        // pointer: the rows run on `planned`.
        let planned = layouts(&l);
        assert!(!planned.is_empty() && planned.iter().all(|l| *l == "planned"), "{l}");

        let (rows, nnz) = (a.rows() as u64, a.nnz() as u64);
        for riders in [1usize, 3] {
            let k = 8;
            let rt = Runtime::new();
            let reqs: Vec<(Dense, Dense)> = (0..riders)
                .map(|_| {
                    (
                        gen::random_dense(a.rows(), k, &mut rng),
                        gen::random_dense(k, a.cols(), &mut rng),
                    )
                })
                .collect();
            let mut outs = vec![vec![0.0f32; a.nnz()]; riders];
            crate::sddmm::sddmm_execute_views_on(&rt, &a, &reqs, &mut outs).unwrap();
            let kernel = KernelSpec::Sddmm { a: (&a).into(), k }.compile_on(&rt).unwrap();
            assert_eq!(rt.compilations(), 1, "the kernel the launch ran");
            // The `j` loop is the nest, entered once per row and rider.
            let riders = riders as u64;
            let what = format!("sddmm, {riders} riders");
            let l = assert_fast_path(&kernel, (riders * rows, riders * nnz), &what);
            assert_eq!((nests(&l, "nest.gsa"), lane_loops_outside_a_nest(&l)), (1, 0), "{l}");
            assert_eq!(layouts(&l), ["csr"], "{l}");
            assert!(!l.contains("bsearch"), "row-shaped, no row recovery\n{l}");
            assert!(l.contains("gather=@"), "{l}");
        }

        // `sddmm_ir` — the benchmark's SDDMM arm — is the served kernel, on
        // whole tensors.
        let k = 8;
        let mut tensors = Bindings::new();
        bind_csr(&mut tensors, "A", "J", &a);
        bind_dense(&mut tensors, "X", &gen::random_dense(a.rows(), k, &mut rng));
        bind_dense(&mut tensors, "Y", &gen::random_dense(k, a.cols(), &mut rng));
        bind_zeros(&mut tensors, "Bout", a.nnz());
        let f = crate::sddmm::sddmm_ir(&a, k).unwrap();
        let l = launch_blocked(&f, &mut tensors, (rows, nnz), "sddmm_ir");
        assert_eq!((nests(&l, "nest.gsa"), lane_loops_outside_a_nest(&l)), (1, 0), "{l}");
        assert_eq!(layouts(&l), ["csr"], "{l}");

        // Fused attention: all five passes are nests entered once per row
        // and head — the score the SDDMM's, the softmax's running maximum,
        // `exp(S − M)` map and partition sum, and the aggregation, whose
        // coefficient is the ratio `P[pos] / Sum[i]`.
        let d = 8;
        for heads in [1usize, 3] {
            let rt = Runtime::new();
            let dense = |rows, cols, rng: &mut _| gen::random_dense(rows, cols, rng);
            let qs: Vec<Dense> = (0..heads).map(|_| dense(a.rows(), d, &mut rng)).collect();
            let kts: Vec<Dense> = (0..heads).map(|_| dense(d, a.cols(), &mut rng)).collect();
            let vs: Vec<Dense> = (0..heads).map(|_| dense(a.cols(), d, &mut rng)).collect();
            let mut outs = vec![Dense::zeros(a.rows(), d); heads];
            let (q, kt, v): (Vec<&Dense>, Vec<&Dense>, Vec<&Dense>) =
                (qs.iter().collect(), kts.iter().collect(), vs.iter().collect());
            crate::fused_attention::fused_attention_views_on(&rt, &a, &q, &kt, &v, &mut outs)
                .unwrap();
            let spec = KernelSpec::FusedAttention { a: (&a).into(), k: d, vfeat: d };
            let kernel = spec.compile_on(&rt).unwrap();
            assert_eq!(rt.compilations(), 1, "the kernel the launch ran");
            let heads = heads as u64;
            let what = format!("attention, {heads} heads");
            let l = assert_fast_path(&kernel, (5 * heads * rows, 5 * heads * nnz), &what);
            let softmax = ["nest.max", "nest.exp", "nest.axpy"].map(|kind| nests(&l, kind));
            assert_eq!((nests(&l, "nest."), nests(&l, "nest.gsa")), (5, 1), "{l}");
            assert_eq!(softmax, [1, 1, 2], "the partition sum and the aggregation\n{l}");
            assert_eq!(lane_loops_outside_a_nest(&l), 0, "{l}");
            assert!(l.contains("coeff=+1/row"), "the walked ratio\n{l}");
            assert_eq!(layouts(&l), ["csr"; 5], "{l}");
        }

        // Fused SAGE: the gather is a row nest over each row's neighbours,
        // the transform one over its `feat` inputs (coefficient `Agg[i, k]
        // · Dinv[i]`), each entered once per row.
        let (feat, hidden) = (6, 16);
        let rt = Runtime::new();
        let x = gen::random_dense(a.cols(), feat, &mut rng);
        let w = gen::random_dense(feat, hidden, &mut rng);
        crate::fused_sage::fused_sage_execute_on(&rt, &a, &x, &w).unwrap();
        let kernel =
            KernelSpec::FusedSage { a: (&a).into(), feat, hidden }.compile_on(&rt).unwrap();
        let want = (2 * rows, nnz + rows * feat as u64);
        let l = assert_fast_path(&kernel, want, "sage");
        assert_eq!((nests(&l, "nest.axpy"), lane_loops_outside_a_nest(&l)), (2, 0), "{l}");
        assert!(l.contains("coeff=+1*row"), "the walked product\n{l}");
        // The transform's trip count is the constant `feat`, no row pointer.
        assert_eq!(layouts(&l), ["csr", "planned"], "{l}");
    }

    /// The compiled executor must agree bit-for-bit with the reference
    /// interpreter on the lowered SpMM kernel.
    #[test]
    fn compiled_executor_bit_matches_interpreter() {
        let mut rng = gen::rng(81);
        let a = gen::random_csr(40, 32, 0.15, &mut rng);
        let x = gen::random_dense(32, 8, &mut rng);
        let prepared = prepare_spmm(&a, &x, &SpmmConfig::default_csr()).unwrap();
        let (mut fast, mut slow) = (prepared.bindings.clone(), prepared.bindings);
        exec_func(&prepared.func, &HashMap::new(), &mut fast).unwrap();
        eval_func(&prepared.func, &HashMap::new(), &mut slow).unwrap();
        for (f, s) in fast["C"].as_f32().iter().zip(slow["C"].as_f32()) {
            assert_eq!(f.to_bits(), s.to_bits(), "{f} vs {s}");
        }
    }
}
