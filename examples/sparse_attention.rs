//! Sparse attention with tensor cores (§4.3.1): build a Longformer band
//! mask and a Pixelated-Butterfly mask, run multi-head SpMM in CSR vs BSR,
//! and demonstrate the `tensorize` schedule primitive rewriting a GEMM
//! loop nest into `mma_sync`.
//!
//! Run with: `cargo run --release --example sparse_attention`

use sparsetir::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = AttentionConfig { seq_len: 1024, ..Default::default() };
    let band = band_mask(cfg.seq_len, cfg.band);
    let butterfly = butterfly_mask(cfg.seq_len, cfg.block);
    println!(
        "masks at seq_len {}: band nnz {}, butterfly nnz {}",
        cfg.seq_len,
        band.nnz(),
        butterfly.nnz()
    );

    // Functional check: batched SpMM per head against the reference.
    let mut rng = gen::rng(11);
    let xs: Vec<Dense> =
        (0..3).map(|_| gen::random_dense(cfg.seq_len, cfg.feat, &mut rng)).collect();
    let ys = batched_spmm(&band, &xs)?;
    for (x, y) in xs.iter().zip(&ys) {
        assert!(y.approx_eq(&band.spmm(x)?, 1e-4));
    }
    println!("batched SpMM matches per-head references ✓");

    // Performance: CSR (CUDA cores) vs BSR (tensor cores) vs Triton.
    let gpu = GpuSpec::v100();
    for (name, mask) in [("Longformer", &band), ("Butterfly", &butterfly)] {
        let bsr = Bsr::from_csr(mask, cfg.block)?;
        let t_csr = simulate_kernel(&gpu, &batched_csr_spmm_plan(mask, cfg.feat, cfg.heads, "csr"));
        let t_bsr = simulate_kernel(
            &gpu,
            &batched_bsr_spmm_plan(&bsr, cfg.feat, cfg.heads, SPARSETIR_BSR_EFFICIENCY, "bsr"),
        );
        let t_triton =
            simulate_kernel(&gpu, &triton_blocksparse_spmm_plan(mask, cfg.feat, cfg.heads));
        println!(
            "{name:<10} MH-SpMM: CSR {:.3} ms | BSR+TC {:.3} ms | Triton {:.3} ms → SparseTIR-BSR is {:.2}x of Triton",
            t_csr.time_ms,
            t_bsr.time_ms,
            t_triton.time_ms,
            t_triton.time_ms / t_bsr.time_ms
        );
    }

    // The tensorize primitive: a 16×16×16 GEMM loop nest becomes one
    // mma_sync intrinsic, functionally identical.
    let (m, n, k) = (16i64, 16i64, 16i64);
    let mi = Var::i32("mi");
    let ni = Var::i32("ni");
    let ki = Var::i32("ki");
    let a = Buffer::global_f32("A", vec![Expr::i32(m * k)]);
    let b = Buffer::global_f32("B", vec![Expr::i32(k * n)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(m * n)]);
    let store = Stmt::BufferStore {
        buffer: c.clone(),
        indices: vec![Expr::var(&mi) * n + Expr::var(&ni)],
        value: c.load(vec![Expr::var(&mi) * n + Expr::var(&ni)])
            + a.load(vec![Expr::var(&mi) * k + Expr::var(&ki)])
                * b.load(vec![Expr::var(&ki) * n + Expr::var(&ni)]),
    };
    let body = Stmt::for_serial(
        mi.clone(),
        m,
        Stmt::for_serial(ni.clone(), n, Stmt::for_serial(ki.clone(), k, store)),
    );
    let f = PrimFunc::new("gemm16", vec![], vec![a, b, c], body);
    let mut sch = Schedule::new(f);
    sch.tensorize_gemm("mi", "ni", "ki")?;
    println!("\n--- tensorized 16x16x16 GEMM ---\n{}", print_func(sch.func()));
    Ok(())
}
