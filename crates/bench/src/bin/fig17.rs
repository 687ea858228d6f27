//! Regenerates the paper's fig17 (README §Crate map lists the `crates/bench` harnesses).
fn main() {
    print!("{}", sparsetir_bench::experiments::fig17::run());
}
