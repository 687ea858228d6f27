//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--list] [name …]
//! ```
//!
//! Without arguments every entry of [`ALL`] runs in order; with names,
//! those run in the order given (`--list` prints the names). Each
//! experiment prints its table and asserts its behaviours in-process;
//! `SPARSETIR_SMOKE` shrinks the sweeps and `SPARSETIR_BENCH_ASSERT`
//! arms the bars of `serving_throughput`, `serving_slo` and
//! `dynamic_graphs`.

use sparsetir_bench::experiments::ALL;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        ALL.iter().for_each(|(name, _)| println!("{name}"));
        return;
    }
    // Every name resolves before anything runs.
    let chosen: Vec<_> = if args.is_empty() {
        ALL.to_vec()
    } else {
        args.iter()
            .map(|arg| *ALL.iter().find(|(name, _)| name == arg).unwrap_or_else(|| unknown(arg)))
            .collect()
    };
    for (name, run) in chosen {
        eprintln!("[experiments] running {name} …");
        println!("{}", run());
    }
}

fn unknown(arg: &str) -> ! {
    let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
    eprintln!("unknown experiment `{arg}`; valid names: {}", names.join(" "));
    std::process::exit(2)
}
