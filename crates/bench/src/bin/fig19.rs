//! Regenerates the paper's fig19 (README §Crate map lists the `crates/bench` harnesses).
fn main() {
    print!("{}", sparsetir_bench::experiments::fig19::run());
}
