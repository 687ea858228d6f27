//! What generates each served Stage III function, as a value: the
//! compile-cache key of the four served entry points.
//!
//! Format decomposition and lowering are compile-time work (§3, Stages
//! I–III), and a served kernel is built from the adjacency's `rows / cols`
//! and the request shape alone (hyb adds its bucket list). No served kernel
//! is scheduled: Stage II's `bind` / `split` map loops onto a GPU (§3.3),
//! so each is the unscheduled row walk. The non-zero count is the kernel's
//! scalar parameter [`NNZ`] (Figure 3's `nnz: T.int32`), which every
//! launch binds ([`LaunchBindings::views`]).
//! A [`KernelSpec`] holds exactly those, [`KernelSpec::build`] is the builder
//! with no `Csr` in scope — so the function cannot depend on anything the
//! spec leaves out — and [`KernelSpec::compile_on`] hands the spec itself
//! to [`Runtime::compile_keyed`] as the key: a warm launch hashes a few
//! words and builds, prints and hashes no IR. The kernels bake `rows /
//! cols` and the request shape, not `nnz`: two graphs of equal `rows` and
//! `cols` share one kernel, whatever their edges — so a graph update that
//! adds or deletes edges compiles nothing.

use sparsetir_core::data::NNZ;
use sparsetir_core::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_smat::prelude::*;
use std::sync::Arc;

pub(crate) type KernelResult<T> = Result<T, Box<dyn std::error::Error>>;

/// All a Stage I program reads of an adjacency; its non-zero count is a
/// launch parameter.
#[derive(Debug, Clone, Copy, Hash, PartialEq, Eq)]
pub(crate) struct CsrShape {
    pub rows: usize,
    pub cols: usize,
}

impl From<&Csr> for CsrShape {
    fn from(a: &Csr) -> CsrShape {
        CsrShape { rows: a.rows(), cols: a.cols() }
    }
}

/// One served kernel, described by what its function is generated from.
/// Equal specs build equal functions and — the other half of being a cache
/// key — different specs different ones: a field holds what the builder
/// uses, so no two keys file the same kernel twice.
#[derive(Debug, Clone, Hash, PartialEq, Eq)]
pub(crate) enum KernelSpec {
    /// The row-shaped CSR SpMM at feature width `feat`.
    CsrSpmm { a: CsrShape, feat: usize },
    /// The `hyb(c, k)` SpMM: one `bucket_ell` rewrite per non-empty bucket,
    /// listed as `(partition, width, bucket rows)` in partition-then-width
    /// order — at least one: with none, the function is `CsrSpmm`'s.
    HybSpmm { a: CsrShape, feat: usize, buckets: Vec<(usize, usize, usize)> },
    /// The row-shaped one-head SDDMM at inner width `k`.
    Sddmm { a: CsrShape, k: usize },
    /// One head of SDDMM → edge-softmax → SpMM in one function.
    FusedAttention { a: CsrShape, k: usize, vfeat: usize },
    /// Gather → normalize → matmul in one function.
    FusedSage { a: CsrShape, feat: usize, hidden: usize },
}

impl KernelSpec {
    /// Build and lower the Stage III function (the Figure 3 → Figure 9
    /// pipeline; for hyb through the `decompose_format` bucket rewrites of
    /// Figure 11), its non-zero count the parameter [`NNZ`].
    ///
    /// # Errors
    /// Propagates decomposition and lowering errors.
    pub(crate) fn build(&self) -> KernelResult<PrimFunc> {
        self.build_with(Var::i32(NNZ).into())
    }

    /// [`KernelSpec::build`] with `a.nnz()` a constant: the function
    /// `build` makes, [`PrimFunc::specialize`]d to `a`'s non-zero count,
    /// which runs with no scalars bound (the public `*_ir` builders).
    ///
    /// # Errors
    /// [`KernelSpec::build`]'s.
    pub(crate) fn build_for(&self, a: &Csr) -> KernelResult<PrimFunc> {
        self.build_with(Expr::from(a.nnz()))
    }

    /// The spec's function with `nnz` the adjacency's non-zero count: the
    /// parameter [`NNZ`], or a constant; debug builds [`validate`] the
    /// Stage I program and [`verify`] the function.
    fn build_with(&self, nnz: Expr) -> KernelResult<PrimFunc> {
        let program = match *self {
            KernelSpec::CsrSpmm { a, feat } => spmm_program(a.rows, a.cols, nnz, feat),
            KernelSpec::HybSpmm { a, feat, ref buckets } => {
                let program = spmm_program(a.rows, a.cols, nnz, feat);
                let rule = |&(partition, width, len): &(usize, usize, usize)| {
                    let tag = bucket_tag(partition, width);
                    FormatRewriteRule::bucket_ell("A", &tag, width, len, a.cols)
                };
                let rules: Vec<_> = buckets.iter().map(rule).collect();
                decompose_format(&program, &rules)?.strip_copies()
            }
            KernelSpec::Sddmm { a, k } => batched_sddmm_program(a.rows, a.cols, nnz, 1, k),
            KernelSpec::FusedAttention { a, k, vfeat } => {
                fused_attention_program(a.rows, a.cols, nnz, 1, k, vfeat)
            }
            KernelSpec::FusedSage { a, feat, hidden } => {
                fused_sage_program(a.rows, a.cols, nnz, feat, hidden)
            }
        };
        debug_assert_eq!(validate(&program), Ok(()), "{self:?}: the Stage I program");
        let func = lower(&program)?;
        debug_assert_eq!(verify(&func), Ok(()), "{self:?}: the Stage III function");
        Ok(func)
    }

    /// The kernel of this spec on `rt`, compiled on first sight: the step
    /// between validation and binding in every served launch.
    ///
    /// # Errors
    /// [`KernelSpec::build`]'s, with its text, and compile errors.
    pub(crate) fn compile_on(&self, rt: &Runtime) -> KernelResult<Arc<CompiledKernel>> {
        rt.compile_keyed(self, || self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused_attention::fused_attention_views_on;
    use crate::fused_sage::fused_sage_execute_on;
    use crate::sddmm::sddmm_execute_views_on;
    use crate::spmm::{
        prepare_spmm, prepare_spmm_structure, spmm_execute_views_on, spmm_spec, SpmmConfig,
    };
    use sparsetir_smat::gen;
    use std::collections::HashMap;

    /// `rows × cols` with row `r` holding `len(r)` non-zeros at seeded
    /// random columns: equal `len`, different seeds — equal shape, different
    /// edges.
    fn graph(rows: usize, cols: usize, len: impl Fn(usize) -> usize, seed: u64) -> Csr {
        let mut row = 0;
        let next = |_: &mut _| {
            row += 1;
            len(row - 1)
        };
        gen::random_csr_with_row_lengths(rows, cols, next, &mut gen::rng(seed))
    }

    /// Heavy-tailed row lengths with empty rows in between.
    fn power_law(r: usize) -> usize {
        [0, 1, 1, 2, 1, 3, 9, 1, 0, 2, 17, 1][r % 12]
    }

    fn hyb(c: usize, k: u32) -> SpmmConfig {
        SpmmConfig { col_parts: Some(c), bucket_k: k, ..SpmmConfig::default_csr() }
    }

    fn csr(rows_per_block: usize, vec_width: usize) -> SpmmConfig {
        let mut config = SpmmConfig::default_csr();
        config.params.rows_per_block = rows_per_block;
        config.params.vec_width = vec_width;
        config
    }

    /// A spec is a complete key and a minimal one: over graphs × configs ×
    /// request shapes, two specs are equal exactly when the functions they
    /// build print equal — a field `build` reads but the key lacks would
    /// serve one caller another's kernel, a field that does not reach the
    /// text would compile one kernel twice.
    #[test]
    fn equal_specs_build_equal_functions_and_only_they() {
        let graphs = [
            graph(36, 30, power_law, 1),
            graph(36, 30, power_law, 2), // the first one's shape, other edges
            graph(0, 5, |_| 0, 3),
            graph(7, 9, |_| 0, 4),
            // Row lengths 1 and 4 only: `hyb(_, 3)` leaves widths 2 and 8 empty.
            graph(12, 16, |r| [1, 4][r % 2], 5),
            // The first one's `rows / cols`, one more non-zero a row.
            graph(36, 30, |r| power_law(r) + 1, 6),
        ];
        let mut specs = Vec::new();
        for a in &graphs {
            for feat in [1usize, 4, 16, 48] {
                let configs = [1usize, 4, 7]
                    .into_iter()
                    .flat_map(|rpb| [1usize, 2, 4].map(|vw| csr(rpb, vw)))
                    .chain([hyb(1, 0), hyb(1, 3), hyb(2, 0), hyb(2, 3)]);
                specs.extend(configs.map(|config| spmm_spec(a, feat, &config).unwrap().0));
            }
            for (k, vfeat) in [(8usize, 8usize), (4, 8), (8, 5)] {
                specs.push(KernelSpec::Sddmm { a: a.into(), k });
                specs.push(KernelSpec::FusedAttention { a: a.into(), k, vfeat });
                specs.push(KernelSpec::FusedSage { a: a.into(), feat: k, hidden: vfeat });
            }
        }
        let texts: Vec<String> = specs
            .iter()
            .map(|spec| match spec.build() {
                Ok(f) => format!("{}\n{}", f.name, print_func(&f)),
                Err(e) => panic!("{spec:?} does not build: {e}"),
            })
            .collect();
        let (mut by_spec, mut by_text) = (HashMap::new(), HashMap::new());
        for (spec, text) in specs.iter().zip(&texts) {
            let first = by_spec.entry(spec).or_insert(text);
            assert_eq!(*first, text, "incomplete key: {spec:?} builds two functions");
            let first = by_text.entry(text).or_insert(spec);
            assert_eq!(*first, spec, "cache split: two specs build\n{text}");
        }
        // Equal `rows / cols`, different `nnz`: one spec and one text per
        // op — `nnz` is the kernel's parameter, not part of its key.
        let (first, denser) = (&graphs[0], &graphs[5]);
        assert!(first.nnz() < denser.nnz());
        let same_shape = [
            |a: &Csr| KernelSpec::CsrSpmm { a: a.into(), feat: 16 },
            |a: &Csr| KernelSpec::Sddmm { a: a.into(), k: 8 },
            |a: &Csr| KernelSpec::FusedAttention { a: a.into(), k: 8, vfeat: 4 },
            |a: &Csr| KernelSpec::FusedSage { a: a.into(), feat: 8, hidden: 4 },
        ];
        for spec_of in same_shape {
            let (spec, other) = (spec_of(first), spec_of(denser));
            assert_eq!(spec, other);
            let text = |s: &KernelSpec| print_func(&s.build().unwrap());
            assert_eq!(text(&spec), text(&other), "{spec:?}");
            assert!(spec.build().unwrap().param(NNZ).is_some(), "{spec:?} takes `nnz`");
        }
        // The grid does exercise both directions: specs repeat (GPU schedule
        // parameters the CPU kernel does not read, graphs of one `rows /
        // cols`, a graph without non-zeros under every `hyb` config — no
        // bucket, the CSR kernel) and differ: 104 of 366.
        assert!((90..specs.len()).contains(&by_spec.len()), "{} specs", by_spec.len());
        let an_empty_bucket = |s: &&KernelSpec| {
            matches!(s, KernelSpec::HybSpmm { buckets, .. }
            if buckets.iter().map(|b| b.1).eq([1, 4]))
        };
        assert!(specs.iter().any(|s| an_empty_bucket(&s)), "fixture: widths 2 and 8 empty");
    }

    /// One Stage I program, two schedules: what the CPU compiles walks rows
    /// — no kernel a spec builds, nor `sddmm_ir` (the benchmark's SDDMM
    /// arm), recovers a row by binary search, and none splits its rows into
    /// blocks or guards a tail: one `rows` loop per row nest, no branch, at
    /// every width on row counts four does not divide — while the pipeline
    /// oracles and the SDDMM oracle keep the GPU's `sparse_fuse(["I",
    /// "J"])` and search a row per non-zero. The served-vs-oracle bit checks
    /// compare across loop shapes, not one shape with itself.
    #[test]
    fn cpu_kernels_walk_rows_and_the_oracles_search_them() {
        let listing = |f: &PrimFunc| CompiledKernel::compile(f).unwrap().disassemble();
        for rows in [37, 61] {
            let a = graph(rows, 30, power_law, 11);
            let sp = CsrShape::from(&a);
            for d in [1usize, 4, 16, 48, 128] {
                let specs = [
                    KernelSpec::CsrSpmm { a: sp, feat: d },
                    KernelSpec::Sddmm { a: sp, k: d },
                    KernelSpec::FusedAttention { a: sp, k: d, vfeat: d },
                    KernelSpec::FusedSage { a: sp, feat: d, hidden: d },
                ];
                for spec in &specs {
                    let l = listing(&spec.build().unwrap());
                    assert!(!l.contains("bsearch"), "{spec:?}\n{l}");
                    assert!(!l.contains("br."), "{spec:?}: a branch\n{l}");
                    let split = l.lines().any(|i| i.contains("  rows ") && i.contains(" × "));
                    assert!(!split, "{spec:?}: a split row loop\n{l}");
                }
            }
        }
        let a = graph(36, 30, power_law, 11);
        let l = listing(&spmm_spec(&a, 16, &hyb(2, 3)).unwrap().0.build().unwrap());
        assert!(!l.contains("bsearch"), "hyb\n{l}");
        let l = listing(&crate::sddmm::sddmm_ir(&a, 8).unwrap());
        assert!(!l.contains("bsearch"), "sddmm_ir\n{l}");

        use crate::fused_attention::{attention_aggregate_ir, attention_score_ir, edge_softmax_ir};
        let oracles = [
            ("sddmm", crate::sddmm::fused_ij_sddmm_ir(&a, 3, 8)),
            ("attention score", attention_score_ir(&a, 3, 8).unwrap()),
            ("edge softmax", edge_softmax_ir(&a, 3).unwrap()),
            ("attention aggregate", attention_aggregate_ir(&a, 3, 4).unwrap()),
            ("sage gather", crate::fused_sage::sage_gather_ir(&a, 8).unwrap()),
        ];
        for (what, f) in &oracles {
            let l = listing(f);
            assert!(l.contains("bsearch"), "the {what} oracle searches rows\n{l}");
        }
    }

    /// Lookups, hits and compilations of `rt` so far.
    fn counts(rt: &Runtime) -> [usize; 3] {
        [rt.keyed_lookups(), rt.keyed_hits(), rt.compilations()]
    }

    /// After its first launch every served entry point finds its kernel by
    /// spec: ten more launches are ten lookups, ten hits and no
    /// compilation (that a hit also runs no `build` is release-only and
    /// checked in `ir`'s `runtime_concurrency`).
    #[test]
    fn warm_launches_build_nothing() {
        let a = graph(36, 30, power_law, 6);
        let mut rng = gen::rng(7);
        let x = gen::random_dense(30, 16, &mut rng);
        let pair = (gen::random_dense(36, 8, &mut rng), gen::random_dense(8, 30, &mut rng));
        let v = gen::random_dense(30, 8, &mut rng);
        let (sx, sw) = (gen::random_dense(30, 6, &mut rng), gen::random_dense(6, 4, &mut rng));
        type Launch<'a> = Box<dyn Fn(&Runtime) + 'a>;
        let spmm = |config: SpmmConfig| -> Launch<'_> {
            let (a, x) = (&a, &x);
            Box::new(move |rt| {
                let mut outs = [Dense::zeros(36, 16)];
                spmm_execute_views_on(rt, a, &[x], &mut outs, &config).unwrap();
            })
        };
        let launches: [(&str, Launch<'_>); 5] = [
            ("csr spmm", spmm(SpmmConfig::default_csr())),
            ("hyb spmm", spmm(hyb(2, 3))),
            (
                "sddmm",
                Box::new(|rt| {
                    let mut outs = [vec![0.0f32; a.nnz()]];
                    sddmm_execute_views_on(rt, &a, std::slice::from_ref(&pair), &mut outs).unwrap();
                }),
            ),
            (
                "fused attention",
                Box::new(|rt| {
                    let mut outs = [Dense::zeros(36, 8)];
                    fused_attention_views_on(rt, &a, &[&pair.0], &[&pair.1], &[&v], &mut outs)
                        .unwrap();
                }),
            ),
            (
                "fused sage",
                Box::new(|rt| {
                    fused_sage_execute_on(rt, &a, &sx, &sw).unwrap();
                }),
            ),
        ];
        for (what, launch) in &launches {
            let rt = Runtime::new();
            launch(&rt);
            assert_eq!(counts(&rt), [1, 0, 1], "{what}: the cold launch");
            (0..10).for_each(|_| launch(&rt));
            assert_eq!(counts(&rt), [11, 10, 1], "{what}: ten warm launches");
            assert_eq!(rt.cached(), 1, "{what}");
        }
    }

    /// `a · x` through the interpreter on whole tensors.
    fn interpreted_spmm(a: &Csr, x: &Dense, config: &SpmmConfig) -> Dense {
        let mut p = prepare_spmm(a, x, config).unwrap();
        eval_func(&p.func, &HashMap::new(), &mut p.bindings).unwrap();
        read_dense(&p.bindings, "C", a.rows(), x.cols())
    }

    /// The one-head SDDMM through the interpreter on whole tensors.
    fn interpreted_sddmm(a: &Csr, x: &Dense, y: &Dense) -> Vec<f32> {
        let f = KernelSpec::Sddmm { a: a.into(), k: x.cols() }.build_for(a).unwrap();
        let mut t = Bindings::new();
        bind_csr(&mut t, "A", "J", a);
        bind_dense(&mut t, "X", x);
        bind_dense(&mut t, "Y", y);
        bind_zeros(&mut t, "Bout", a.nnz());
        eval_func(&f, &HashMap::new(), &mut t).unwrap();
        t["Bout"].as_f32().to_vec()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Every function buffer of `f` that `structure` does not bind, filled
    /// with seeded values at its length at `nnz` (outputs and scratch
    /// included: both runs start from the same bits).
    fn operands(f: &PrimFunc, mut structure: Bindings, nnz: usize, seed: u64) -> Bindings {
        let mut rng = gen::rng(seed);
        let scalars = HashMap::from([(NNZ.to_string(), nnz as i64)]);
        for b in &f.specialize(&scalars).buffers {
            let len = b.const_len().expect("constant at a bound nnz") as usize;
            structure.entry(b.name.to_string()).or_insert_with(|| {
                TensorData::from(gen::random_dense(len, 1, &mut rng).data().to_vec())
            });
        }
        structure
    }

    /// What one launch of `kernel` did: every tensor it left, and what its
    /// nests counted in that launch.
    fn launch(
        kernel: &CompiledKernel,
        scalars: &HashMap<String, i64>,
        mut t: Bindings,
    ) -> (Vec<(String, Vec<u32>)>, NestCounts) {
        let before = kernel.nest_counts();
        kernel.run(scalars, &mut t).unwrap();
        let after = kernel.nest_counts();
        let mut out: Vec<_> = t
            .into_iter()
            .filter_map(|(name, data)| match data {
                TensorData::F32(v) => Some((name, bits(&v))),
                TensorData::I32(_) => None,
            })
            .collect();
        out.sort();
        let counts = NestCounts {
            entries: after.entries - before.entries,
            handovers: after.handovers - before.handovers,
            trips: after.trips - before.trips,
            stepped: after.stepped - before.stepped,
            blocked: after.blocked - before.blocked,
        };
        (out, counts)
    }

    /// `nnz` as a launch parameter changes nothing a kernel does: every
    /// served spec on the power-law fixture, run with `nnz` bound, leaves
    /// the bits the same function specialized to that `nnz` leaves — which
    /// prints as the spec's build with `nnz` a constant — takes the same
    /// blocks — every entry, every trip, no hand-over — and has as many
    /// lane ops. A successor whose
    /// delta deleted every edge (`nnz = 0`) runs on the kernel first
    /// compiled at `nnz > 0`, and matches that specialization too. (hyb's
    /// spec lists its buckets, and an empty graph has none: no kernel to
    /// share there.)
    #[test]
    fn a_launch_parameter_nnz_runs_as_the_specialized_kernel() {
        let a = graph(36, 30, power_law, 13);
        let mut delete_all = GraphDelta::new();
        for r in 0..a.rows() {
            for &c in a.row(r).0 {
                delete_all.delete(r as u32, c);
            }
        }
        let emptied = a.apply_delta(&delete_all).unwrap();
        assert_eq!((emptied.rows(), emptied.cols(), emptied.nnz()), (36, 30, 0));
        let structure = |a: &Csr| {
            let mut t = Bindings::new();
            bind_csr(&mut t, "A", "J", a);
            t
        };
        let served = |a: &Csr| {
            let sp = CsrShape::from(a);
            let mut specs = vec![
                (KernelSpec::CsrSpmm { a: sp, feat: 16 }, structure(a)),
                (KernelSpec::CsrSpmm { a: sp, feat: 48 }, structure(a)),
                (KernelSpec::Sddmm { a: sp, k: 8 }, structure(a)),
                (KernelSpec::FusedAttention { a: sp, k: 8, vfeat: 4 }, structure(a)),
                (KernelSpec::FusedSage { a: sp, feat: 8, hidden: 4 }, structure(a)),
            ];
            if a.nnz() > 0 {
                let (_, structure) = prepare_spmm_structure(a, 16, &hyb(2, 3)).unwrap();
                specs.push((spmm_spec(a, 16, &hyb(2, 3)).unwrap().0, structure));
            }
            specs
        };
        let mut shared = 0;
        for (seed, ((spec, t), (spec0, t0))) in
            served(&a).into_iter().zip(served(&emptied)).enumerate()
        {
            let f = spec.build().unwrap();
            let symbolic = CompiledKernel::compile(&f).unwrap();
            let check = |a: &Csr, t: Bindings, shared: &CompiledKernel| {
                let scalars = HashMap::from([(NNZ.to_string(), a.nnz() as i64)]);
                let t = operands(&f, t, a.nnz(), seed as u64);
                let specialized = f.specialize(&scalars);
                let built = spec.build_for(a).unwrap();
                assert_eq!(print_func(&specialized), print_func(&built), "{spec:?}");
                let constant = CompiledKernel::compile(&specialized).unwrap();
                assert!(constant.memory_plan().entries.iter().all(|e| e.symbolic.is_none()));
                let (got, counts) = launch(shared, &scalars, t.clone());
                let (want, want_counts) = launch(&constant, &HashMap::new(), t);
                assert!(got == want, "{spec:?} at nnz = {}: the bits differ", a.nnz());
                assert_eq!(counts, want_counts, "{spec:?} at nnz = {}", a.nnz());
                assert_eq!(counts.blocked, counts.entries, "{spec:?}: {counts:?}");
                assert_eq!((counts.stepped, counts.handovers), (counts.trips, 0), "{spec:?}");
                assert_eq!(shared.fused_ops(), constant.fused_ops(), "{spec:?}");
                counts
            };
            assert!(check(&a, t, &symbolic).blocked > 0, "{spec:?}: the fixture has rows");
            if spec0 == spec {
                check(&emptied, t0, &symbolic);
                shared += 1;
            }
        }
        assert_eq!(shared, 5, "every spec but hyb's serves the emptied graph");
    }

    /// A kernel bakes `rows / cols` and the request shape, never structure
    /// and never `nnz`: graphs of equal `rows / cols` and different edges —
    /// two seeds, a delta that moves one edge, and one that adds an edge —
    /// are served by one compiled kernel per op, each to its own answer,
    /// bit-equal to the interpreter's. The hyb arm keys on the bucket list
    /// too, so there equal shapes share a kernel only when they bucket
    /// alike.
    #[test]
    fn graphs_of_one_shape_share_a_kernel_and_keep_their_answers() {
        let first = graph(36, 30, power_law, 8);
        let second = graph(36, 30, power_law, 9);
        let (row, old) = (6u32, first.row(6).0[0]);
        let new = (0..30u32).find(|c| !first.row(6).0.contains(c)).unwrap();
        let mut delta = GraphDelta::new();
        delta.delete(row, old).upsert(row, new, 0.5);
        let moved = first.apply_delta(&delta).unwrap();
        delta.upsert(0, 0, 0.25); // row 0 is empty: one more non-zero
        let grown = first.apply_delta(&delta).unwrap();
        assert!(first.nnz() == second.nnz() && first.nnz() == moved.nnz());
        assert!(first != second && first != moved && grown.nnz() == first.nnz() + 1);

        let mut rng = gen::rng(10);
        let x = gen::random_dense(30, 16, &mut rng);
        let (sx, sy) = (gen::random_dense(36, 8, &mut rng), gen::random_dense(8, 30, &mut rng));
        let rt = Runtime::new();
        let serve = |a: &Csr, config: &SpmmConfig| {
            let mut outs = [Dense::zeros(36, 16)];
            spmm_execute_views_on(&rt, a, &[&x], &mut outs, config).unwrap();
            let [out] = outs;
            assert_eq!(bits(out.data()), bits(interpreted_spmm(a, &x, config).data()));
            out
        };
        let serve_sddmm = |a: &Csr| {
            let mut outs = [vec![0.0f32; a.nnz()]];
            sddmm_execute_views_on(&rt, a, &[(sx.clone(), sy.clone())], &mut outs).unwrap();
            assert_eq!(bits(&outs[0]), bits(&interpreted_sddmm(a, &sx, &sy)));
        };
        let config = SpmmConfig::default_csr();
        let answers = [&first, &second, &moved].map(|a| serve(a, &config));
        assert_eq!(rt.compilations(), 1, "three structures, one shape, one SpMM kernel");
        assert!(answers[0] != answers[1] && answers[0] != answers[2], "each its own answer");
        [&first, &second, &moved].iter().for_each(|a| serve_sddmm(a));
        assert_eq!(rt.compilations(), 2, "and one SDDMM kernel");
        serve(&grown, &config);
        serve_sddmm(&grown);
        assert_eq!(rt.compilations(), 2, "one more non-zero: no new kernel");

        let before = rt.compilations();
        let bucketings: std::collections::HashSet<KernelSpec> = [&first, &second, &moved]
            .map(|a| {
                serve(a, &hyb(2, 2));
                spmm_spec(a, 16, &hyb(2, 2)).unwrap().0
            })
            .into_iter()
            .collect();
        assert_eq!(rt.compilations() - before, bucketings.len(), "one kernel per bucket list");
    }
}
