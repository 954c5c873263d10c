//! Collective-communication scaling study on the `shrimp-coll` layer:
//! barrier latency and ring-allreduce latency/bandwidth at 2x2, 4x4,
//! and 8x8 meshes, plus the allreduce algorithm-crossover sweep at 4x4
//! (ring reduce-scatter+allgather vs recursive doubling, with the size
//! selector's pick alongside).
//!
//! Usage: `cargo run -p shrimp-bench --bin collectives [-- --seed N] [-- --smoke]`
//!
//! `--smoke` drops the 8x8 mesh and trims the sweeps (CI). The report
//! is derived entirely from virtual time: reruns with the same seed
//! are byte-identical, which the binary itself re-checks.

use shrimp_bench::cli::flag;
use shrimp_bench::collectives::render_report;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 = flag(&args, "--seed", "collectives [--seed N] [--smoke]").unwrap_or(42);

    let report = render_report(seed, smoke);
    print!("{report}");

    // The replay guarantee: the same seed must reproduce the same
    // report byte-for-byte.
    let replayed = render_report(seed, smoke);
    assert_eq!(report, replayed, "same-seed replay must be bit-identical");
    println!("replay check passed: report is bit-identical for seed {seed}");
}
