//! Figure 5: VRPC null-call round-trip latency and bandwidth, with a
//! single opaque argument and a single opaque result of equal size.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_node::CostModel;
use shrimp_sim::{FaultLog, FaultPlan, Kernel, SimTime};
use shrimp_sunrpc::{AcceptStat, RpcDirectory, StreamVariant, VrpcClient, VrpcServer};

use crate::report::{render_figure, Point, Series, LATENCY_CUTOFF};

const PROG: u32 = 0x2000_0001;
const VERS: u32 = 1;
const WARMUP: u32 = 2;
const ROUNDS: u32 = 8;

/// Figure 5's two curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VrpcVariant {
    /// Data by deliberate update (one copy: the receive-side XDR decode).
    Du1Copy,
    /// Data by automatic update (one copy likewise; the marshal stores
    /// are the send).
    Au1Copy,
}

impl VrpcVariant {
    /// Paper legend label.
    pub fn label(self) -> &'static str {
        match self {
            VrpcVariant::Du1Copy => "DU-1copy",
            VrpcVariant::Au1Copy => "AU-1copy",
        }
    }

    /// Both, in the paper's legend order.
    pub fn all() -> [VrpcVariant; 2] {
        [VrpcVariant::Du1Copy, VrpcVariant::Au1Copy]
    }

    fn stream(self) -> StreamVariant {
        match self {
            VrpcVariant::Du1Copy => StreamVariant::DeliberateUpdate,
            VrpcVariant::Au1Copy => StreamVariant::AutomaticUpdate,
        }
    }
}

/// Run the Figure 5 experiment for one (variant, size) cell. The
/// reported latency is the **round-trip** time (as in the paper's
/// Figure 5); bandwidth counts argument plus result bytes.
pub fn vrpc_roundtrip(variant: VrpcVariant, size: usize, costs: CostModel) -> Point {
    vrpc_run(variant, size, costs, None).0
}

/// [`vrpc_roundtrip`], optionally under a fault plan (the `simprof`
/// workloads): also returns the plan's fault log. Only a fault-free run
/// must be free of protection violations.
pub(crate) fn vrpc_run(
    variant: VrpcVariant,
    size: usize,
    costs: CostModel,
    faults: Option<&FaultPlan>,
) -> (Point, Option<Arc<FaultLog>>) {
    let kernel = Kernel::new();
    let mut config = SystemConfig::prototype();
    config.costs = costs;
    let system = ShrimpSystem::build(&kernel, config);
    let log = faults.map(|plan| system.apply_faults(plan));
    let dir = RpcDirectory::new();
    let result: Arc<Mutex<Option<(SimTime, SimTime)>>> = Arc::new(Mutex::new(None));

    {
        let vmmc = system.endpoint(1, "server");
        let dir = Arc::clone(&dir);
        kernel.spawn("server", move |ctx| {
            let mut server = VrpcServer::new(vmmc, PROG, VERS);
            server.register(
                1, // null procedure with one INOUT opaque argument
                Box::new(|_ctx, args, out| {
                    let Ok(data) = args.get_opaque() else {
                        return AcceptStat::GarbageArgs;
                    };
                    out.put_opaque(data);
                    AcceptStat::Success
                }),
            );
            let mut conn = server.accept(ctx, &dir).unwrap();
            server.serve(ctx, &mut conn).unwrap();
        });
    }
    {
        let vmmc = system.endpoint(0, "client");
        let dir = Arc::clone(&dir);
        let result = Arc::clone(&result);
        kernel.spawn("client", move |ctx| {
            let mut client =
                VrpcClient::bind(vmmc, ctx, &dir, PROG, VERS, variant.stream()).unwrap();
            let arg = vec![0x7Eu8; size];
            for _ in 0..WARMUP {
                let a = arg.clone();
                let r = client
                    .call(
                        ctx,
                        1,
                        move |e| e.put_opaque(&a),
                        |d| Ok(d.get_opaque()?.to_vec()),
                    )
                    .unwrap();
                assert_eq!(r.len(), size);
            }
            let t0 = ctx.now();
            for _ in 0..ROUNDS {
                let a = arg.clone();
                client
                    .call(
                        ctx,
                        1,
                        move |e| e.put_opaque(&a),
                        |d| Ok(d.get_opaque()?.to_vec()),
                    )
                    .unwrap();
            }
            *result.lock() = Some((t0, ctx.now()));
            client.close(ctx).unwrap();
        });
    }
    kernel.run_until_quiescent().expect("VRPC bench failed");
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

/// The Figure 5 report: both VRPC variants over the paper's sizes, with
/// the null-call anchor.
pub fn fig5_report() -> String {
    let all: Vec<Series> = VrpcVariant::all()
        .into_iter()
        .map(|v| {
            Series::sweep(v.label(), |size| {
                vrpc_roundtrip(v, size, CostModel::shrimp_prototype())
            })
        })
        .collect();
    let mut out = render_figure(
        "Figure 5: VRPC round-trip latency and bandwidth (single INOUT opaque argument)",
        &all,
        LATENCY_CUTOFF,
    );
    out.push_str(&format!(
        "\nanchors: null RPC round trip {:.1} us AU / {:.1} us DU (paper: ~29 us)\n",
        all[1].latency_at(4).expect("a paper size"),
        all[0].latency_at(4).expect("a paper size")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_rpc_round_trip_near_29us() {
        let p = vrpc_roundtrip(VrpcVariant::Au1Copy, 4, CostModel::shrimp_prototype());
        assert!(
            (p.latency_us - 29.0).abs() < 4.0,
            "null VRPC round trip {:.1} us vs paper ~29",
            p.latency_us
        );
    }

    #[test]
    fn du_and_au_converge_for_large_arguments() {
        let au = vrpc_roundtrip(VrpcVariant::Au1Copy, 10240, CostModel::shrimp_prototype());
        let du = vrpc_roundtrip(VrpcVariant::Du1Copy, 10240, CostModel::shrimp_prototype());
        let ratio = au.bandwidth_mbs / du.bandwidth_mbs;
        assert!((0.7..1.4).contains(&ratio), "AU {au:?} vs DU {du:?}");
    }
}
