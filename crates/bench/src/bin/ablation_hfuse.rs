//! Regenerates the paper's ablation_hfuse (README §Crate map lists the `crates/bench` harnesses).
fn main() {
    print!("{}", sparsetir_bench::experiments::ablation_hfuse::run());
}
