//! Regenerates the paper's fig14 (README §Crate map lists the `crates/bench` harnesses).
fn main() {
    print!("{}", sparsetir_bench::experiments::fig14::run());
}
