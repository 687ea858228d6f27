//! Dump the flat-bytecode disassembly of a canonical kernel to stdout.
//!
//! ```text
//! kernel_disasm <csr_spmm|hyb_spmm|batched_sddmm|fused_attention|all> [feat]
//! ```
//!
//! Uses the same deterministic fixture matrix as the golden-file tests
//! (`crates/ir/tests/golden/`), so the output for the default `feat`
//! matches the committed listings; pass a different `feat` to inspect how
//! the shape changes lowering.

use sparsetir_ir::prelude::*;
use sparsetir_kernels::prelude::*;
use sparsetir_kernels::sddmm::batched_sddmm_ir;
use sparsetir_smat::prelude::*;

/// The golden-file fixture: deterministic 6×6 matrix, row degrees 0–5.
fn fixture_csr() -> Csr {
    let indptr = vec![0, 3, 4, 4, 9, 10, 12];
    let indices: Vec<u32> = vec![0, 2, 4, 1, 0, 1, 2, 3, 5, 3, 2, 4];
    let values: Vec<f32> = (0..12).map(|i| 0.5 + i as f32 * 0.25).collect();
    Csr::new(6, 6, indptr, indices, values).expect("valid fixture matrix")
}

fn build(kernel: &str, feat: usize) -> Result<PrimFunc, Box<dyn std::error::Error>> {
    let a = fixture_csr();
    match kernel {
        "csr_spmm" => csr_spmm_ir(&a, feat),
        "hyb_spmm" => {
            let x = Dense::from_fn(a.cols(), feat, |i, j| (i * feat + j) as f32 * 0.125 - 1.0);
            let cfg =
                SpmmConfig { col_parts: Some(2), bucket_k: 2, params: CsrSpmmParams::default() };
            Ok(prepare_spmm(&a, &x, &cfg)?.func)
        }
        "batched_sddmm" => batched_sddmm_ir(&a, 2, feat),
        "fused_attention" => fused_attention_ir(&a, 2, feat, 3),
        other => Err(format!("unknown kernel `{other}`").into()),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let kernel = args.next().unwrap_or_else(|| {
        eprintln!(
            "usage: kernel_disasm <csr_spmm|hyb_spmm|batched_sddmm|fused_attention|all> [feat]"
        );
        std::process::exit(2);
    });
    let feat: usize = args.next().map_or(4, |s| s.parse().expect("feat must be an integer"));
    let names = if kernel == "all" {
        vec!["csr_spmm", "hyb_spmm", "batched_sddmm", "fused_attention"]
    } else {
        vec![kernel.as_str()]
    };
    for (i, name) in names.iter().enumerate() {
        let func = match build(name, feat) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("kernel_disasm: {e}");
                std::process::exit(2);
            }
        };
        let compiled = match CompiledKernel::compile(&func) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("kernel_disasm: compile failed: {e}");
                std::process::exit(1);
            }
        };
        if i > 0 {
            println!();
        }
        print!("{}", compiled.disassemble());
    }
}
