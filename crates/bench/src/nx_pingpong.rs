//! Figure 4: NX latency and bandwidth.
//!
//! The same ping-pong as Figure 3, but through the NX compatibility
//! library. The five curves map onto library configurations:
//!
//! | curve     | configuration                                            |
//! |-----------|----------------------------------------------------------|
//! | AU-1copy  | automatic-update marshal, message consumed in place      |
//! | AU-2copy  | automatic-update marshal + receiver copy                 |
//! | DU-1copy  | data straight from user memory (two deliberate updates)  |
//! | DU-2copy  | marshal copy + single deliberate update                  |
//! | DU-0copy  | the zero-copy scout protocol forced for every size       |

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_node::{CacheMode, CostModel};
use shrimp_nx::{NxConfig, NxWorld, SendVariant};
use shrimp_sim::{Kernel, SimTime};

use crate::pingpong::{vmmc_pingpong, Strategy};
use crate::report::{render_figure, Point, Series, LATENCY_CUTOFF};

/// The five NX protocol variants of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NxVariant {
    /// Automatic update, consumed in place (one copy total).
    Au1Copy,
    /// Automatic update plus receiver copy (two copies).
    Au2Copy,
    /// Deliberate update from user memory plus receiver copy (one copy).
    Du1Copy,
    /// Marshal copy plus one deliberate update plus receiver copy (two).
    Du2Copy,
    /// Zero-copy scout protocol for every message.
    Du0Copy,
}

impl NxVariant {
    /// Paper legend label.
    pub fn label(self) -> &'static str {
        match self {
            NxVariant::Au1Copy => "AU-1copy",
            NxVariant::Au2Copy => "AU-2copy",
            NxVariant::Du0Copy => "DU-0copy",
            NxVariant::Du1Copy => "DU-1copy",
            NxVariant::Du2Copy => "DU-2copy",
        }
    }

    /// All five, in the paper's legend order.
    pub fn all() -> [NxVariant; 5] {
        [
            NxVariant::Au1Copy,
            NxVariant::Au2Copy,
            NxVariant::Du0Copy,
            NxVariant::Du1Copy,
            NxVariant::Du2Copy,
        ]
    }

    /// The library configuration realizing this curve.
    pub fn config(self) -> NxConfig {
        let mut c = NxConfig::paper_default();
        match self {
            NxVariant::Au1Copy => {
                c.send_variant = SendVariant::AutomaticUpdate;
                c.in_place_receive = true;
            }
            NxVariant::Au2Copy => {
                c.send_variant = SendVariant::AutomaticUpdate;
            }
            NxVariant::Du1Copy => {
                c.send_variant = SendVariant::DuFromUser;
            }
            NxVariant::Du2Copy => {
                c.send_variant = SendVariant::DuMarshal;
            }
            NxVariant::Du0Copy => {
                c.large_threshold = 0;
            }
        }
        c
    }
}

const WARMUP: u32 = 2;
const ROUNDS: u32 = 8;

/// Run one NX ping-pong experiment; returns the measured point.
pub fn nx_pingpong(variant: NxVariant, size: usize, costs: CostModel) -> Point {
    let kernel = Kernel::new();
    let mut config = SystemConfig::prototype();
    config.costs = costs;
    let system = ShrimpSystem::build(&kernel, config);
    let world = NxWorld::new(Arc::clone(&system), variant.config(), vec![0, 1]);
    let result: Arc<Mutex<Option<(SimTime, SimTime)>>> = Arc::new(Mutex::new(None));

    {
        let world = Arc::clone(&world);
        let result = Arc::clone(&result);
        kernel.spawn("rank0", move |ctx| {
            let mut nx = world.join(ctx, 0);
            let sbuf = nx.vmmc().proc_().alloc(size.max(8), CacheMode::WriteBack);
            let rbuf = nx.vmmc().proc_().alloc(size.max(8), CacheMode::WriteBack);
            let fill: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
            nx.vmmc().proc_().poke(sbuf, &fill).unwrap();
            for _ in 0..WARMUP {
                nx.csend(ctx, 1, sbuf, size, 1).unwrap();
                nx.crecv(ctx, 2, rbuf, size.max(8)).unwrap();
            }
            let t0 = ctx.now();
            for _ in 0..ROUNDS {
                nx.csend(ctx, 1, sbuf, size, 1).unwrap();
                nx.crecv(ctx, 2, rbuf, size.max(8)).unwrap();
            }
            *result.lock() = Some((t0, ctx.now()));
            nx.flush(ctx).unwrap();
        });
    }
    {
        let world = Arc::clone(&world);
        kernel.spawn("rank1", move |ctx| {
            let mut nx = world.join(ctx, 1);
            let sbuf = nx.vmmc().proc_().alloc(size.max(8), CacheMode::WriteBack);
            let rbuf = nx.vmmc().proc_().alloc(size.max(8), CacheMode::WriteBack);
            let fill: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
            nx.vmmc().proc_().poke(sbuf, &fill).unwrap();
            for _ in 0..(WARMUP + ROUNDS) {
                nx.crecv(ctx, 1, rbuf, size.max(8)).unwrap();
                nx.csend(ctx, 2, sbuf, size, 0).unwrap();
            }
            nx.flush(ctx).unwrap();
        });
    }

    kernel.run_until_quiescent().expect("NX ping-pong failed");
    assert!(system.violations().is_empty());
    let (t0, t1) = result.lock().expect("rank0 never finished");
    let one_way_us = (t1 - t0).as_us() / (2.0 * ROUNDS as f64);
    Point {
        size: size.max(4),
        latency_us: one_way_us,
        bandwidth_mbs: size.max(4) as f64 / one_way_us,
    }
}

/// The Figure 4 report: every NX variant over the paper's sizes, with
/// the small-message overhead and zero-copy bandwidth anchors.
pub fn fig4_report() -> String {
    let all: Vec<Series> = NxVariant::all()
        .into_iter()
        .map(|v| {
            Series::sweep(v.label(), |size| {
                nx_pingpong(v, size, CostModel::shrimp_prototype())
            })
        })
        .collect();
    let mut out = render_figure("Figure 4: NX latency and bandwidth", &all, LATENCY_CUTOFF);
    let hw = vmmc_pingpong(Strategy::Au1Copy, 8, false, CostModel::shrimp_prototype());
    let nx = all[0].latency_at(8).expect("a paper size");
    out.push_str(&format!(
        "\nanchors: AU small-message overhead over hardware {:.2} us (paper: just over 6)\n",
        nx - hw.latency_us
    ));
    let hw_bw = vmmc_pingpong(
        Strategy::Du0Copy,
        10240,
        false,
        CostModel::shrimp_prototype(),
    );
    out.push_str(&format!(
        "         zero-copy 10 KB bandwidth {:.1} MB/s vs raw hardware {:.1} MB/s\n",
        all[2].bandwidth_at(10240).expect("a paper size"),
        hw_bw.bandwidth_mbs
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pingpong::{vmmc_pingpong, Strategy};

    #[test]
    fn nx_small_au_overhead_near_6us_over_hardware() {
        let hw = vmmc_pingpong(Strategy::Au1Copy, 8, false, CostModel::shrimp_prototype());
        let nx = nx_pingpong(NxVariant::Au1Copy, 8, CostModel::shrimp_prototype());
        let overhead = nx.latency_us - hw.latency_us;
        assert!(
            (3.0..9.0).contains(&overhead),
            "NX AU small-message overhead {overhead:.2} us over hardware (paper: just over 6)"
        );
    }

    #[test]
    fn nx_large_bandwidth_approaches_hardware() {
        let hw = vmmc_pingpong(
            Strategy::Du0Copy,
            10240,
            false,
            CostModel::shrimp_prototype(),
        );
        let nx = nx_pingpong(NxVariant::Du0Copy, 10240, CostModel::shrimp_prototype());
        assert!(
            nx.bandwidth_mbs > 0.8 * hw.bandwidth_mbs,
            "NX zero-copy bandwidth {:.1} should approach hardware {:.1}",
            nx.bandwidth_mbs,
            hw.bandwidth_mbs
        );
    }

    #[test]
    fn variant_ordering_small_messages() {
        let au1 = nx_pingpong(NxVariant::Au1Copy, 16, CostModel::shrimp_prototype());
        let au2 = nx_pingpong(NxVariant::Au2Copy, 16, CostModel::shrimp_prototype());
        let du2 = nx_pingpong(NxVariant::Du2Copy, 16, CostModel::shrimp_prototype());
        assert!(au1.latency_us < au2.latency_us);
        assert!(au1.latency_us < du2.latency_us);
    }

    #[test]
    fn du_marshal_beats_two_updates_for_tiny_then_loses() {
        // The Figure 4 trade-off: one DU with a marshal copy wins for
        // tiny messages; two DUs win once copying costs more than the
        // extra send.
        let tiny_2copy = nx_pingpong(NxVariant::Du2Copy, 8, CostModel::shrimp_prototype());
        let tiny_1copy = nx_pingpong(NxVariant::Du1Copy, 8, CostModel::shrimp_prototype());
        assert!(tiny_2copy.latency_us < tiny_1copy.latency_us);
        let big_2copy = nx_pingpong(NxVariant::Du2Copy, 1536, CostModel::shrimp_prototype());
        let big_1copy = nx_pingpong(NxVariant::Du1Copy, 1536, CostModel::shrimp_prototype());
        assert!(big_1copy.latency_us < big_2copy.latency_us);
    }
}
