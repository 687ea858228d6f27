//! Regenerates the paper's table2 (README §Crate map lists the `crates/bench` harnesses).
fn main() {
    print!("{}", sparsetir_bench::experiments::table2::run());
}
