//! Wall-clock performance harness for the simulation engine itself.
//!
//! Everything else in this crate measures *virtual* time — the modelled
//! hardware. This module measures *host* time: how many wall seconds
//! and allocations the simulator burns to execute representative
//! workloads, and how many scheduled items per second the event kernel
//! sustains. It exists to keep the simulator fast enough that large
//! meshes and chaos sweeps are bound by the modelled hardware, not by
//! `Box<dyn FnOnce>` churn and condvar handshakes.
//!
//! The workloads are the repo's own figures, reused verbatim so the
//! numbers track real usage:
//!
//! * `fig3` — VMMC base-layer ping-pong, all four copy strategies;
//! * `fig7` — stream-socket ping-pong, all three variants;
//! * `coll4x4` — barrier + allreduce scaling study on a 4×4 mesh;
//! * `coll8x8` — the same on an 8×8 mesh (64 process threads), the
//!   headline number for engine-overhaul PRs.
//!
//! Virtual results (latencies, reduced values) are checked against the
//! same invariants the figure binaries assert, so a simperf run is also
//! an end-to-end correctness pass; and because virtual time is
//! deterministic, any two builds must agree on every virtual output
//! while differing only in wall cost.

use std::time::Instant;

use shrimp_node::CostModel;
use shrimp_sim::metrics::MetricsSnapshot;
use shrimp_sim::{Fnv1a, MetricsRegistry};

use crate::collectives::{allreduce_sweep, barrier_latency};
use crate::pingpong::{vmmc_pingpong, Strategy};
use crate::socket_bench::{socket_pingpong, socket_variants};
use crate::{paper_sizes, Point};

/// Measured host-side cost of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name (`fig3`, `fig7`, `coll4x4`, `coll8x8`).
    pub name: &'static str,
    /// Wall-clock seconds to run the workload.
    pub wall_s: f64,
    /// Engine counter deltas attributed to the workload.
    pub metrics: MetricsSnapshot,
    /// Heap allocations during the workload (0 when the caller
    /// installed no counting allocator).
    pub allocs: u64,
    /// Bytes requested from the allocator during the workload.
    pub alloc_bytes: u64,
    /// A virtual-time checksum: a stable digest of the workload's
    /// modelled results. Must be bit-identical across engine changes.
    pub virt_digest: u64,
}

impl WorkloadResult {
    /// Scheduled items (events + resumes) executed per wall second.
    pub fn items_per_sec(&self) -> f64 {
        self.metrics.items() as f64 / self.wall_s.max(1e-12)
    }
}

/// Allocation counter hooks. The `simperf` binary installs a counting
/// global allocator and passes its readers here; library users (tests)
/// pass [`no_alloc_counter`].
pub type AllocCounter = fn() -> (u64, u64);

/// The no-op allocation counter.
pub fn no_alloc_counter() -> (u64, u64) {
    (0, 0)
}

fn digest_points(h: &mut Fnv1a, points: &[Point]) {
    for p in points {
        h.write(&p.size.to_le_bytes());
        h.write_u64(p.latency_us.to_bits());
        h.write_u64(p.bandwidth_mbs.to_bits());
    }
}

fn run_workload(
    name: &'static str,
    alloc_counter: AllocCounter,
    body: impl FnOnce() -> u64,
) -> WorkloadResult {
    let (a0, b0) = alloc_counter();
    // A fresh registry per workload: counters attribute exactly to the
    // kernels this workload builds, not additively across workloads.
    let registry = MetricsRegistry::new();
    let guard = registry.install();
    let t0 = Instant::now();
    let virt_digest = body();
    let wall_s = t0.elapsed().as_secs_f64();
    drop(guard);
    let metrics = registry.snapshot();
    let (a1, b1) = alloc_counter();
    WorkloadResult {
        name,
        wall_s,
        metrics,
        allocs: a1.saturating_sub(a0),
        alloc_bytes: b1.saturating_sub(b0),
        virt_digest,
    }
}

/// The `fig3` workload: VMMC ping-pong, four strategies over the
/// paper's message sizes.
pub fn workload_fig3(alloc_counter: AllocCounter) -> WorkloadResult {
    run_workload("fig3", alloc_counter, || {
        let sizes = paper_sizes();
        let mut h = Fnv1a::new();
        for strategy in Strategy::all() {
            let pts: Vec<Point> = sizes
                .iter()
                .map(|&s| vmmc_pingpong(strategy, s, false, CostModel::shrimp_prototype()))
                .collect();
            digest_points(&mut h, &pts);
        }
        h.finish()
    })
}

/// The `fig7` workload: stream-socket ping-pong, three variants over
/// the paper's message sizes.
pub fn workload_fig7(alloc_counter: AllocCounter) -> WorkloadResult {
    run_workload("fig7", alloc_counter, || {
        let sizes = paper_sizes();
        let mut h = Fnv1a::new();
        for variant in socket_variants() {
            let pts: Vec<Point> = sizes
                .iter()
                .map(|&s| socket_pingpong(variant, s, CostModel::shrimp_prototype()))
                .collect();
            digest_points(&mut h, &pts);
        }
        h.finish()
    })
}

fn workload_coll(
    name: &'static str,
    width: usize,
    height: usize,
    sizes: &[usize],
    rounds: u32,
    alloc_counter: AllocCounter,
) -> WorkloadResult {
    run_workload(name, alloc_counter, || {
        let mut h = Fnv1a::new();
        let barrier_us = barrier_latency(width, height, rounds.max(4));
        h.write_u64(barrier_us.to_bits());
        for pt in allreduce_sweep(width, height, sizes, None, rounds, 42) {
            h.write(&pt.bytes.to_le_bytes());
            h.write_u64(pt.us_per_op.to_bits());
        }
        h.finish()
    })
}

/// The `coll4x4` workload: barrier + allreduce sweep on a 4×4 mesh.
pub fn workload_coll4x4(alloc_counter: AllocCounter) -> WorkloadResult {
    workload_coll("coll4x4", 4, 4, &[64, 1024, 8192], 4, alloc_counter)
}

/// The `coll8x8` workload: barrier + allreduce sweep on an 8×8 mesh —
/// 64 blocking process threads, the engine's worst case and the
/// headline number for simulator-throughput work.
pub fn workload_coll8x8(alloc_counter: AllocCounter) -> WorkloadResult {
    workload_coll("coll8x8", 8, 8, &[64, 1024, 8192, 65536], 3, alloc_counter)
}

type WorkloadFn = fn(AllocCounter) -> WorkloadResult;

/// Run every workload (or the named subset) in a fixed order.
pub fn run_all(only: Option<&str>, alloc_counter: AllocCounter) -> Vec<WorkloadResult> {
    let all: [(&str, WorkloadFn); 4] = [
        ("fig3", workload_fig3),
        ("fig7", workload_fig7),
        ("coll4x4", workload_coll4x4),
        ("coll8x8", workload_coll8x8),
    ];
    all.iter()
        .filter(|(n, _)| only.is_none_or(|o| o == *n))
        .map(|(_, f)| f(alloc_counter))
        .collect()
}

/// Render results as the `BENCH_simperf.json` fragment for this run.
pub fn render_json(results: &[WorkloadResult]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.4}, \"items\": {}, \"items_per_sec\": {:.0}, \
             \"events\": {}, \"resumes\": {}, \"fast_resumes\": {}, \"allocs\": {}, \
             \"alloc_bytes\": {}, \"virt_digest\": \"{:016x}\"}}{}",
            r.name,
            r.wall_s,
            r.metrics.items(),
            r.items_per_sec(),
            r.metrics.events_executed,
            r.metrics.resumes,
            r.metrics.fast_resumes,
            r.allocs,
            r.alloc_bytes,
            r.virt_digest,
            if i + 1 == results.len() { "\n" } else { ",\n" },
        ));
    }
    out.push_str("  ]");
    out
}

/// Extract `"wall_s": <x>` for workload `name` from a committed
/// `BENCH_simperf.json`. Minimal scan, no JSON dependency: finds the
/// object containing `"name": "<name>"` inside the given section and
/// reads its `wall_s` field.
pub fn baseline_wall_s(json: &str, section: &str, name: &str) -> Option<f64> {
    let sec = json.find(&format!("\"{section}\""))?;
    let tail = &json[sec..];
    let end = tail.find(']').unwrap_or(tail.len());
    let tail = &tail[..end];
    let obj = tail.find(&format!("\"name\": \"{name}\""))?;
    let tail = &tail[obj..];
    let ws = tail.find("\"wall_s\":")?;
    let tail = &tail[ws + "\"wall_s\":".len()..];
    let num: String = tail
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_digest_is_deterministic() {
        let a = workload_fig3(no_alloc_counter);
        let b = workload_fig3(no_alloc_counter);
        assert_eq!(a.virt_digest, b.virt_digest);
        assert!(a.metrics.items() > 0);
    }

    #[test]
    fn baseline_parser_reads_committed_shape() {
        let json = r#"{
  "after": [
    {"name": "fig3", "wall_s": 0.1234, "items": 10},
    {"name": "coll8x8", "wall_s": 2.5, "items": 20}
  ]
}"#;
        assert_eq!(baseline_wall_s(json, "after", "fig3"), Some(0.1234));
        assert_eq!(baseline_wall_s(json, "after", "coll8x8"), Some(2.5));
        assert_eq!(baseline_wall_s(json, "after", "nope"), None);
        assert_eq!(baseline_wall_s(json, "before", "fig3"), None);
    }
}
