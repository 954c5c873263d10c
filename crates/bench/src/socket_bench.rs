//! Figure 7 and the §4.3 ttcp measurements: stream-socket latency,
//! bandwidth, and one-way throughput.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_mesh::NodeId;
use shrimp_node::CostModel;
use shrimp_sim::{Kernel, SimDur, SimTime};
use shrimp_sockets::{connect, listen, SocketVariant};

use crate::pingpong::{vmmc_pingpong, Strategy};
use crate::report::{render_figure, Point, Series, LATENCY_CUTOFF};

const WARMUP: u32 = 2;
const ROUNDS: u32 = 8;

/// The three socket curves of Figure 7.
pub fn socket_variants() -> [SocketVariant; 3] {
    [
        SocketVariant::Au2Copy,
        SocketVariant::Du1Copy,
        SocketVariant::Du2Copy,
    ]
}

/// The paper's legend label for a variant.
pub fn variant_label(v: SocketVariant) -> &'static str {
    match v {
        SocketVariant::Au2Copy => "AU-2copy",
        SocketVariant::Du1Copy => "DU-1copy",
        SocketVariant::Du2Copy => "DU-2copy",
    }
}

/// Socket ping-pong for one (variant, size) cell.
pub fn socket_pingpong(variant: SocketVariant, size: usize, costs: CostModel) -> Point {
    let kernel = Kernel::new();
    let mut config = SystemConfig::prototype();
    config.costs = costs;
    let system = ShrimpSystem::build(&kernel, config);
    let result: Arc<Mutex<Option<(SimTime, SimTime)>>> = Arc::new(Mutex::new(None));

    {
        let vmmc = system.endpoint(1, "server");
        let eth = Arc::clone(system.ethernet());
        kernel.spawn("server", move |ctx| {
            let listener = listen(vmmc, eth, 7777);
            let mut sock = listener.accept(ctx).unwrap();
            for _ in 0..(WARMUP + ROUNDS) {
                let msg = sock.recv_exact(ctx, size).unwrap();
                sock.send(ctx, &msg).unwrap();
            }
        });
    }
    {
        let vmmc = system.endpoint(0, "client");
        let eth = Arc::clone(system.ethernet());
        let result = Arc::clone(&result);
        kernel.spawn("client", move |ctx| {
            let mut sock = connect(vmmc, ctx, &eth, NodeId(1), 7777, variant).unwrap();
            let msg: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
            for _ in 0..WARMUP {
                sock.send(ctx, &msg).unwrap();
                let echo = sock.recv_exact(ctx, size).unwrap();
                assert_eq!(echo, msg);
            }
            let t0 = ctx.now();
            for _ in 0..ROUNDS {
                sock.send(ctx, &msg).unwrap();
                sock.recv_exact(ctx, size).unwrap();
            }
            *result.lock() = Some((t0, ctx.now()));
            sock.close(ctx).unwrap();
        });
    }
    kernel
        .run_until_quiescent()
        .expect("socket ping-pong failed");
    assert!(system.violations().is_empty());
    let (t0, t1) = result.lock().expect("client never finished");
    let one_way_us = (t1 - t0).as_us() / (2.0 * ROUNDS as f64);
    Point {
        size,
        latency_us: one_way_us,
        bandwidth_mbs: size as f64 / one_way_us,
    }
}

/// One-way continuous pump, ttcp-style: the sender streams `count`
/// messages of `size` bytes; bandwidth is measured at the receiver.
/// `ttcp_overhead_per_write` models the benchmark program's own
/// per-write work (buffer refill and accounting) — zero for the
/// library's own microbenchmark.
pub fn one_way_pump(
    variant: SocketVariant,
    size: usize,
    count: usize,
    ttcp_overhead_per_write: SimDur,
    costs: CostModel,
) -> f64 {
    let kernel = Kernel::new();
    let mut config = SystemConfig::prototype();
    config.costs = costs;
    let system = ShrimpSystem::build(&kernel, config);
    let bw: Arc<Mutex<f64>> = Arc::new(Mutex::new(0.0));

    {
        let vmmc = system.endpoint(1, "sink");
        let eth = Arc::clone(system.ethernet());
        let bw = Arc::clone(&bw);
        kernel.spawn("sink", move |ctx| {
            let listener = listen(vmmc, eth, 5001); // ttcp's default port
            let mut sock = listener.accept(ctx).unwrap();
            // Skip the first message (pipeline fill), then time the rest.
            sock.recv_exact(ctx, size).unwrap();
            let t0 = ctx.now();
            let mut got = 0usize;
            loop {
                let chunk = sock.recv(ctx, size).unwrap();
                if chunk.is_empty() {
                    break;
                }
                got += chunk.len();
            }
            let dt = (ctx.now() - t0).as_us();
            *bw.lock() = got as f64 / dt;
        });
    }
    {
        let vmmc = system.endpoint(0, "pump");
        let eth = Arc::clone(system.ethernet());
        kernel.spawn("pump", move |ctx| {
            let mut sock = connect(vmmc, ctx, &eth, NodeId(1), 5001, variant).unwrap();
            let msg: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
            for _ in 0..count {
                if !ttcp_overhead_per_write.is_zero() {
                    ctx.advance(ttcp_overhead_per_write);
                }
                sock.send(ctx, &msg).unwrap();
            }
            sock.close(ctx).unwrap();
        });
    }
    kernel.run_until_quiescent().expect("one-way pump failed");
    assert!(system.violations().is_empty());
    let v = *bw.lock();
    v
}

/// The per-write overhead of the ttcp benchmark program itself (pattern
/// generation into its buffer and loop accounting), calibrated against
/// the paper's 8.6 MB/s vs 9.8 MB/s comparison at 7 KB.
pub fn ttcp_write_overhead(size: usize) -> SimDur {
    // Dominated by ttcp regenerating its source pattern per write.
    SimDur::from_ns(10.0 * size as f64 + 26_000.0)
}

/// The Figure 7 report: every socket variant over the paper's sizes,
/// with the small-message overhead and one-copy bandwidth anchors.
pub fn fig7_report() -> String {
    let all: Vec<Series> = socket_variants()
        .into_iter()
        .map(|v| {
            Series::sweep(variant_label(v), |size| {
                socket_pingpong(v, size, CostModel::shrimp_prototype())
            })
        })
        .collect();
    let mut out = render_figure(
        "Figure 7: socket latency and bandwidth",
        &all,
        LATENCY_CUTOFF,
    );
    let hw = vmmc_pingpong(Strategy::Au2Copy, 16, false, CostModel::shrimp_prototype());
    out.push_str(&format!(
        "\nanchors: small-message overhead over hardware {:.1} us (paper: ~13, split evenly)\n",
        all[0].latency_at(16).expect("a paper size") - hw.latency_us
    ));
    let hw1 = vmmc_pingpong(
        Strategy::Du1Copy,
        10240,
        false,
        CostModel::shrimp_prototype(),
    );
    out.push_str(&format!(
        "         10 KB DU-1copy {:.1} MB/s vs raw one-copy limit {:.1} MB/s\n",
        all[1].bandwidth_at(10240).expect("a paper size"),
        hw1.bandwidth_mbs
    ));
    out
}

/// The §4.3 ttcp report: one-way DU-1copy throughput of the ttcp
/// benchmark (with its own per-write overhead) against the library's
/// microbenchmark.
pub fn ttcp_report() -> String {
    let mut out = String::from("== ttcp one-way throughput (paper §4.3) ==\n\n");
    out.push_str(&format!(
        "{:<14}{:>16}{:>20}\n",
        "msg bytes", "ttcp MB/s", "microbench MB/s"
    ));
    for &size in &[70usize, 512, 1024, 4096, 7168, 8192] {
        let count = (200_000 / size).clamp(10, 300);
        let pump = |overhead| {
            one_way_pump(
                SocketVariant::Du1Copy,
                size,
                count,
                overhead,
                CostModel::shrimp_prototype(),
            )
        };
        let ttcp = pump(ttcp_write_overhead(size));
        let lib = pump(SimDur::ZERO);
        out.push_str(&format!("{size:<14}{ttcp:>16.2}{lib:>20.2}\n"));
    }
    out.push_str("\npaper anchors: ttcp 8.6 MB/s and microbenchmark 9.8 MB/s at 7 KB;\n");
    out.push_str("               ttcp 1.3 MB/s at 70 B (already above Ethernet's peak).\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pingpong::{vmmc_pingpong, Strategy};

    #[test]
    fn small_message_overhead_near_13us_over_hardware() {
        let hw = vmmc_pingpong(Strategy::Au2Copy, 16, false, CostModel::shrimp_prototype());
        let s = socket_pingpong(SocketVariant::Au2Copy, 16, CostModel::shrimp_prototype());
        let overhead = s.latency_us - hw.latency_us;
        assert!(
            (8.0..18.0).contains(&overhead),
            "socket small-message overhead {overhead:.1} us over hardware (paper: ~13)"
        );
    }

    #[test]
    fn large_messages_approach_one_copy_limit() {
        let hw = vmmc_pingpong(
            Strategy::Du1Copy,
            10240,
            false,
            CostModel::shrimp_prototype(),
        );
        let s = socket_pingpong(SocketVariant::Du1Copy, 10240, CostModel::shrimp_prototype());
        assert!(
            s.bandwidth_mbs > 0.75 * hw.bandwidth_mbs,
            "socket large-message bandwidth {:.1} vs raw one-copy {:.1}",
            s.bandwidth_mbs,
            hw.bandwidth_mbs
        );
    }

    #[test]
    fn one_way_pump_beats_pingpong_bandwidth() {
        let pp = socket_pingpong(SocketVariant::Du1Copy, 7168, CostModel::shrimp_prototype());
        let ow = one_way_pump(
            SocketVariant::Du1Copy,
            7168,
            20,
            SimDur::ZERO,
            CostModel::shrimp_prototype(),
        );
        assert!(
            ow > pp.bandwidth_mbs,
            "one-way {ow:.1} vs ping-pong {:.1}",
            pp.bandwidth_mbs
        );
    }

    #[test]
    fn ttcp_is_slower_than_the_library_microbenchmark() {
        let lib = one_way_pump(
            SocketVariant::Du1Copy,
            7168,
            20,
            SimDur::ZERO,
            CostModel::shrimp_prototype(),
        );
        let ttcp = one_way_pump(
            SocketVariant::Du1Copy,
            7168,
            20,
            ttcp_write_overhead(7168),
            CostModel::shrimp_prototype(),
        );
        assert!(
            ttcp < lib,
            "ttcp {ttcp:.1} should trail the library's {lib:.1}"
        );
        let ratio = ttcp / lib;
        assert!(
            (0.7..1.0).contains(&ratio),
            "ratio {ratio:.2} (paper: 8.6 vs 9.8 = 0.88)"
        );
    }
}
