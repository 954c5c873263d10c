//! Figure 8: round-trip time for a null RPC with a single INOUT
//! argument of varying size — the SunRPC-compatible VRPC against the
//! non-compatible specialized SHRIMP RPC (fastest variant of each:
//! one-copy automatic update).

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_node::CostModel;
use shrimp_sim::{FaultLog, FaultPlan, Kernel, SimTime};
use shrimp_srpc::{parse_interface, SrpcClient, SrpcDirectory, SrpcServer, Val};

use crate::report::Point;
use crate::vrpc_bench::{vrpc_roundtrip, VrpcVariant};

const WARMUP: u32 = 2;
const ROUNDS: u32 = 8;

/// Round-trip time of the compatible system (VRPC, AU-1copy) for an
/// INOUT argument of `size` bytes.
pub fn compatible_roundtrip(size: usize, costs: CostModel) -> Point {
    vrpc_roundtrip(VrpcVariant::Au1Copy, size, costs)
}

/// Round-trip time of the specialized SHRIMP RPC for an INOUT argument
/// of `size` bytes.
pub fn specialized_roundtrip(size: usize, costs: CostModel) -> Point {
    specialized_run(size, costs, None).0
}

/// [`specialized_roundtrip`], optionally under a fault plan (the
/// `simprof` workloads): also returns the plan's fault log. Only a
/// fault-free run must be free of protection violations.
pub(crate) fn specialized_run(
    size: usize,
    costs: CostModel,
    faults: Option<&FaultPlan>,
) -> (Point, Option<Arc<FaultLog>>) {
    let size = size.max(4);
    let idl = format!("interface Null {{ ping(inout data: opaque[{size}]); }}");
    let kernel = Kernel::new();
    let mut config = SystemConfig::prototype();
    config.costs = costs;
    let system = ShrimpSystem::build(&kernel, config);
    let log = faults.map(|plan| system.apply_faults(plan));
    let dir = SrpcDirectory::new();
    let iface = parse_interface(&idl).expect("well-formed idl");
    let result: Arc<Mutex<Option<(SimTime, SimTime)>>> = Arc::new(Mutex::new(None));

    {
        let vmmc = system.endpoint(1, "server");
        let dir = Arc::clone(&dir);
        let iface = iface.clone();
        kernel.spawn("server", move |ctx| {
            let mut server = SrpcServer::new(vmmc, &iface);
            server.register(
                "ping",
                Box::new(|ctx, ins, out| {
                    out.set(ctx, "data", &ins[0].clone()).unwrap();
                }),
            );
            let mut conn = server.accept(ctx, &dir, "null").unwrap();
            server.serve(ctx, &mut conn).unwrap();
        });
    }
    {
        let vmmc = system.endpoint(0, "client");
        let dir = Arc::clone(&dir);
        let result = Arc::clone(&result);
        kernel.spawn("client", move |ctx| {
            let mut client = SrpcClient::bind(vmmc, ctx, &dir, "null", &iface).unwrap();
            let arg = Val::Bytes(vec![0x55; size]);
            for _ in 0..WARMUP {
                client
                    .call(ctx, "ping", std::slice::from_ref(&arg))
                    .unwrap();
            }
            let t0 = ctx.now();
            for _ in 0..ROUNDS {
                client
                    .call(ctx, "ping", std::slice::from_ref(&arg))
                    .unwrap();
            }
            *result.lock() = Some((t0, ctx.now()));
            client.close(ctx).unwrap();
        });
    }
    kernel
        .run_until_quiescent()
        .expect("specialized RPC bench failed");
    assert!(log.is_some() || system.violations().is_empty());
    let (t0, t1) = result.lock().expect("client never finished");
    let rtt_us = (t1 - t0).as_us() / ROUNDS as f64;
    let point = Point {
        size,
        latency_us: rtt_us,
        bandwidth_mbs: (2 * size) as f64 / rtt_us,
    };
    (point, log)
}

/// §5's software-overhead claim: re-run the null call with every
/// hardware and transfer cost zeroed except library software, and report
/// the per-round-trip software time.
pub fn specialized_software_overhead() -> f64 {
    let mut costs = CostModel::shrimp_prototype();
    // Software-only: library call/bookkeeping costs stay; everything the
    // hardware or memory system does is free.
    costs.store_first_wt = shrimp_sim::SimDur::ZERO;
    costs.store_word_wt = shrimp_sim::SimDur::ZERO;
    costs.store_word_wb = shrimp_sim::SimDur::ZERO;
    costs.store_first_uc = shrimp_sim::SimDur::ZERO;
    costs.store_word_uc = shrimp_sim::SimDur::ZERO;
    costs.load_word = shrimp_sim::SimDur::ZERO;
    costs.poll_gap = shrimp_sim::SimDur::from_ps(1); // keep polls live
    costs.copy_setup = shrimp_sim::SimDur::ZERO;
    costs.nic_snoop = shrimp_sim::SimDur::ZERO;
    costs.nic_packetize = shrimp_sim::SimDur::ZERO;
    costs.au_combine_timeout = shrimp_sim::SimDur::from_ps(1);
    costs.du_engine_setup = shrimp_sim::SimDur::ZERO;
    costs.dma_setup = shrimp_sim::SimDur::ZERO;
    costs.nic_ipt_check = shrimp_sim::SimDur::ZERO;
    costs.eisa_pio_access = shrimp_sim::SimDur::ZERO;
    costs.membus_per_txn = shrimp_sim::SimDur::ZERO;
    costs.eisa_per_txn = shrimp_sim::SimDur::ZERO;
    costs.membus_bytes_per_sec = 1e15;
    costs.eisa_bytes_per_sec = 1e15;
    costs.copy_bytes_per_sec_wb = 1e15;
    costs.copy_bytes_per_sec_wt = 1e15;
    costs.copy_bytes_per_sec_uc = 1e15;
    specialized_roundtrip(4, costs).latency_us
}

/// The Figure 8 report: compatible against non-compatible round trips
/// over the paper's argument sizes, with the null-call and 1000-byte
/// ratio anchors.
pub fn fig8_report() -> String {
    let sizes = [4, 50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000];
    let mut out =
        String::from("== Figure 8: null RPC round-trip time, single INOUT argument ==\n\n");
    out.push_str(&format!(
        "{:<12}{:>18}{:>18}{:>10}\n",
        "bytes", "compatible us", "non-compatible us", "ratio"
    ));
    let mut first = None;
    let mut last = 0.0;
    for size in sizes {
        let c = compatible_roundtrip(size, CostModel::shrimp_prototype());
        let s = specialized_roundtrip(size, CostModel::shrimp_prototype());
        last = c.latency_us / s.latency_us;
        out.push_str(&format!(
            "{:<12}{:>18.2}{:>18.2}{:>10.2}\n",
            size, c.latency_us, s.latency_us, last
        ));
        first.get_or_insert((c.latency_us, s.latency_us));
    }
    let (c0, s0) = first.expect("at least one size");
    out.push_str(&format!(
        "\nanchors: null call {s0:.1} us non-compatible vs {c0:.1} us compatible \
         (paper: 9.5 vs 29, more than a factor of three)\n"
    ));
    out.push_str(&format!(
        "         ratio at 1000 B: {last:.2} (paper: roughly a factor of two)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specialized_is_several_times_faster_for_null_calls() {
        let c = compatible_roundtrip(4, CostModel::shrimp_prototype());
        let s = specialized_roundtrip(4, CostModel::shrimp_prototype());
        let ratio = c.latency_us / s.latency_us;
        assert!(
            ratio > 2.5,
            "compatible {:.1} us vs specialized {:.1} us (paper: >3x)",
            c.latency_us,
            s.latency_us
        );
    }

    #[test]
    fn gap_narrows_to_about_2x_for_1000_byte_arguments() {
        let c = compatible_roundtrip(1000, CostModel::shrimp_prototype());
        let s = specialized_roundtrip(1000, CostModel::shrimp_prototype());
        let ratio = c.latency_us / s.latency_us;
        assert!(
            (1.4..3.0).contains(&ratio),
            "1000 B ratio {ratio:.2} (paper: roughly a factor of two)"
        );
    }

    #[test]
    fn software_overhead_is_small() {
        let us = specialized_software_overhead();
        assert!(
            us < 3.0,
            "software-only round trip {us:.2} us (paper: <1 us per call)"
        );
    }
}
