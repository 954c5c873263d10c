//! The chaos harness: reruns the Figure 3/4/7 workloads plus the
//! shrimp-coll collective rounds under a matrix of deterministic fault
//! plans and asserts the recovery contract — no corruption, per-pair
//! ordering, bounded latency degradation, clean shutdown, and
//! bit-identical reports for identical seeds.
//!
//! Usage: `cargo run -p shrimp-bench --bin chaos [-- --seeds N] [-- --smoke]`
//!
//! `--seeds N` runs N generated light+heavy plans per workload (default
//! 2); `--smoke` runs the single-seed quick matrix used by CI.

use shrimp_bench::chaos::{default_matrix, render_report, run_matrix, Workload};
use shrimp_bench::cli::flag;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let nseeds: u64 =
        flag(&args, "--seeds", "chaos [--seeds N] [--smoke]").unwrap_or(if smoke { 1 } else { 2 });
    let seeds: Vec<u64> = (1..=nseeds).collect();

    // Two nodes carry the traffic; plans target both.
    let matrix = default_matrix(2, &seeds);
    println!(
        "chaos matrix: {} plans x {} workloads",
        matrix.len(),
        Workload::all().len()
    );
    for (name, plan) in &matrix {
        println!("  plan {name}: {} events", plan.events.len());
    }

    let mut all = Vec::new();
    let mut vmmc_report = String::new();
    for workload in Workload::all() {
        println!(
            "running {} under {} plans...",
            workload.label(),
            matrix.len()
        );
        let outcomes = run_matrix(workload, &matrix);
        if workload == Workload::Vmmc {
            vmmc_report = render_report(&outcomes);
        }
        all.extend(outcomes);
    }
    let report = render_report(&all);

    // The replay guarantee: the same matrix must reproduce the same
    // report byte-for-byte.
    let replayed = render_report(&run_matrix(Workload::Vmmc, &matrix));
    assert_eq!(
        vmmc_report, replayed,
        "replaying the vmmc matrix must be bit-identical"
    );

    println!("{report}");
    println!("all recovery contracts held: no corruption, in-order delivery,");
    println!("bounded degradation, clean shutdown, deterministic replay.");
}
