//! Regenerates the paper's fig23 (README §Crate map lists the `crates/bench` harnesses).
fn main() {
    print!("{}", sparsetir_bench::experiments::fig23::run());
}
