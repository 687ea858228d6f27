//! Regenerates the paper's table1 (README §Crate map lists the `crates/bench` harnesses).
fn main() {
    print!("{}", sparsetir_bench::experiments::table1::run());
}
