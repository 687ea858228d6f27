//! Regenerates the paper's fig13 (README §Crate map lists the `crates/bench` harnesses).
fn main() {
    print!("{}", sparsetir_bench::experiments::fig13::run());
}
