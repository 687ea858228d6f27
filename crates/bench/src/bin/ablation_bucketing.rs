//! Regenerates the bucketing on/off ablation (README §Autotuning: the bucket exponent is a tuned parameter).
fn main() {
    print!("{}", sparsetir_bench::experiments::ablation_bucketing::run());
}
