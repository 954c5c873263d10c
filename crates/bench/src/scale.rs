//! Scaling studies on the planned 16-node machine (paper §8): how the
//! collectives and the mesh behave beyond the 4-node prototype.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_mesh::{Mesh2D, TopologyRef};
use shrimp_node::CacheMode;
use shrimp_nx::{NxConfig, NxWorld};
use shrimp_sim::Kernel;

fn build(topo: TopologyRef) -> (Kernel, Arc<ShrimpSystem>, Arc<NxWorld>) {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_topology(topo));
    // One rank per fabric node, in enumeration order.
    let nodes: Vec<usize> = system.topology().nodes().map(|n| n.0).collect();
    let world = NxWorld::new(Arc::clone(&system), NxConfig::paper_default(), nodes);
    (kernel, system, world)
}

/// Barrier (`gsync`) latency averaged over `rounds`, in microseconds.
pub fn barrier_latency(width: usize, height: usize, rounds: u32) -> f64 {
    let (kernel, system, world) = build(Arc::new(Mesh2D::new(width, height)));
    let n = system.len();
    let out: Arc<Mutex<f64>> = Arc::new(Mutex::new(0.0));
    for rank in 0..n {
        let world = Arc::clone(&world);
        let out = Arc::clone(&out);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut nx = world.join(ctx, rank);
            nx.gsync(ctx).unwrap(); // warm-up
            let t0 = ctx.now();
            for _ in 0..rounds {
                nx.gsync(ctx).unwrap();
            }
            if rank == 0 {
                *out.lock() = (ctx.now() - t0).as_us() / rounds as f64;
            }
            nx.flush(ctx).unwrap();
        });
    }
    kernel.run_until_quiescent().expect("barrier bench failed");
    assert!(system.violations().is_empty());
    let v = *out.lock();
    v
}

/// Broadcast completion time (root's send start to the last rank's
/// arrival) for `bytes`, tree vs naive, in microseconds.
pub fn bcast_completion(width: usize, height: usize, bytes: usize, tree: bool) -> f64 {
    let (kernel, system, world) = build(Arc::new(Mesh2D::new(width, height)));
    let n = system.len();
    let finish: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let start: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    for rank in 0..n {
        let world = Arc::clone(&world);
        let finish = Arc::clone(&finish);
        let start = Arc::clone(&start);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut nx = world.join(ctx, rank);
            let buf = nx.vmmc().proc_().alloc(bytes.max(4), CacheMode::WriteBack);
            nx.gsync(ctx).unwrap();
            if rank == 0 {
                *start.lock() = ctx.now().as_ps();
            }
            if tree {
                nx.gbcast(ctx, 0, buf, bytes).unwrap();
            } else {
                nx.gbcast_naive(ctx, 0, buf, bytes).unwrap();
            }
            finish.lock().push(ctx.now().as_ps());
            nx.gsync(ctx).unwrap();
            nx.flush(ctx).unwrap();
        });
    }
    kernel.run_until_quiescent().expect("bcast bench failed");
    assert!(system.violations().is_empty());
    let t0 = *start.lock();
    let t1 = *finish.lock().iter().max().expect("ranks finished");
    (t1 - t0) as f64 / 1e6
}

/// Aggregate delivered bandwidth (MB/s) of a simultaneous ring shift —
/// every rank streams `bytes` to its +1 neighbor — stressing mesh links
/// under load.
pub fn ring_aggregate_bandwidth(width: usize, height: usize, bytes: usize) -> f64 {
    let (kernel, system, world) = build(Arc::new(Mesh2D::new(width, height)));
    let n = system.len();
    let finish: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let start: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    for rank in 0..n {
        let world = Arc::clone(&world);
        let finish = Arc::clone(&finish);
        let start = Arc::clone(&start);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut nx = world.join(ctx, rank);
            let buf = nx.vmmc().proc_().alloc(bytes.max(8), CacheMode::WriteBack);
            nx.gsync(ctx).unwrap();
            if rank == 0 {
                *start.lock() = ctx.now().as_ps();
            }
            let (to, _from) = ((rank + 1) % n, (rank + n - 1) % n);
            // Even ranks send first; odd receive first.
            if rank % 2 == 0 {
                nx.csend(ctx, 1, buf, bytes, to).unwrap();
                nx.crecv(ctx, 1, buf, bytes.max(8)).unwrap();
            } else {
                nx.crecv(ctx, 1, buf, bytes.max(8)).unwrap();
                nx.csend(ctx, 1, buf, bytes, to).unwrap();
            }
            finish.lock().push(ctx.now().as_ps());
            nx.gsync(ctx).unwrap();
            nx.flush(ctx).unwrap();
        });
    }
    kernel.run_until_quiescent().expect("ring bench failed");
    assert!(system.violations().is_empty());
    let t0 = *start.lock();
    let t1 = *finish.lock().iter().max().expect("ranks finished");
    let dt_us = (t1 - t0) as f64 / 1e6;
    (n * bytes) as f64 / dt_us
}

/// The scaling report: the 4-node prototype against the planned
/// 16-node machine on barrier, broadcast and ring bandwidth.
pub fn report() -> String {
    let mut out = String::from("== scaling: 4-node prototype vs planned 16-node machine ==\n\n");
    out.push_str(&format!(
        "{:<26}{:>12}{:>12}\n",
        "metric", "2x2 (4n)", "4x4 (16n)"
    ));
    out.push_str(&format!(
        "{:<26}{:>12.1}{:>12.1}\n",
        "gsync barrier (us)",
        barrier_latency(2, 2, 4),
        barrier_latency(4, 4, 4)
    ));
    for (label, tree) in [
        ("tree bcast 2KB (us)", true),
        ("naive bcast 2KB (us)", false),
    ] {
        out.push_str(&format!(
            "{:<26}{:>12.1}{:>12.1}\n",
            label,
            bcast_completion(2, 2, 2048, tree),
            bcast_completion(4, 4, 2048, tree)
        ));
    }
    out.push_str(&format!(
        "{:<26}{:>12.0}{:>12.0}\n",
        "ring aggregate (MB/s)",
        ring_aggregate_bandwidth(2, 2, 10240),
        ring_aggregate_bandwidth(4, 4, 10240)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_grows_logarithmically_not_linearly() {
        let b4 = barrier_latency(2, 2, 4);
        let b16 = barrier_latency(4, 4, 4);
        // 4 -> 16 ranks: dissemination rounds go 2 -> 4; the cost should
        // roughly double, nowhere near the 4x of a linear barrier.
        let ratio = b16 / b4;
        assert!(
            (1.3..3.2).contains(&ratio),
            "barrier 4n {b4:.1} us -> 16n {b16:.1} us (x{ratio:.2})"
        );
    }

    #[test]
    fn aggregate_ring_bandwidth_scales_with_node_count() {
        let bw4 = ring_aggregate_bandwidth(2, 2, 10240);
        let bw16 = ring_aggregate_bandwidth(4, 4, 10240);
        assert!(
            bw16 > 2.5 * bw4,
            "aggregate bandwidth should scale: 4n {bw4:.0} MB/s vs 16n {bw16:.0} MB/s"
        );
    }

    #[test]
    fn tree_bcast_completes_faster_than_naive_at_16() {
        let tree = bcast_completion(4, 4, 2048, true);
        let naive = bcast_completion(4, 4, 2048, false);
        assert!(tree < naive, "tree {tree:.0} us vs naive {naive:.0} us");
    }
}
