//! `simprof` — virtual-time profiles of the paper's workloads through
//! the `shrimp-obs` subsystem.
//!
//! Where `simperf` measures *host* cost (wall seconds, allocations),
//! this module decomposes *virtual* time: it reruns a figure workload
//! with a [`Recorder`] installed and attributes every picosecond of a
//! message's end-to-end latency to a stack layer. The headline outputs
//! reproduce the paper's two decomposition claims:
//!
//! * **Fig. 5 budget** (`fig5`): a null VRPC call split into header
//!   preparation / transfer + wait / header processing / return from
//!   call, summing *exactly* to the round-trip time;
//! * **§5 SRPC decomposition** (`srpc`): the specialized RPC's marshal /
//!   transfer + wait / server dispatch / unmarshal split, next to the
//!   software-only overhead rerun (paper: "under 1 µsec per call").
//!
//! `fig3`, `fig7`, and `coll4x4` rerun the corresponding simperf
//! workloads under observation and report per-layer phase statistics
//! plus the per-message conservation check. With chaos enabled, the
//! run is driven through the fault-injection engine and the fault log
//! is overlaid on the exported trace as instant events.
//!
//! Every report derives from integer-picosecond virtual time, so it is
//! byte-identical across replays; and because recording is passive, the
//! profiled run's virtual results equal the unobserved run's.

use std::sync::Arc;

use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_node::CostModel;
use shrimp_obs::breakdown::{layer_stats, message_ids};
use shrimp_obs::{breakdown, perfetto, Layer, Recorder, SpanRec};
use shrimp_sim::{FaultEvent, FaultKind, FaultLog, FaultPlan, Kernel, SimDur, SimTime};

use crate::chaos::{run_cell_events, Workload};
use crate::rpc_compare::{specialized_run, specialized_software_overhead};
use crate::simperf::{no_alloc_counter, workload_coll4x4, workload_fig3, workload_fig7};
use crate::vrpc_bench::{vrpc_run, VrpcVariant};

const WARMUP: u32 = 2;
const ROUNDS: u32 = 8;

/// The profiles `simprof` can run.
pub const WORKLOADS: [&str; 6] = ["fig3", "fig5", "fig7", "srpc", "coll4x4", "rmc"];

/// Phase names an RPC-style workload records, used to assemble the
/// per-call budget from the span set.
#[derive(Debug, Clone, Copy)]
pub struct RpcPhases {
    /// Client-side pre-send phase (`header_prep`, `marshal`).
    pub prep: &'static str,
    /// Client-side blocked-on-reply phase.
    pub wait: &'static str,
    /// Client-side post-reply phase (`return`, `unmarshal`).
    pub ret: &'static str,
    /// Server-side dispatch phase, attributed to the call whose wait
    /// window contains it.
    pub server: &'static str,
    /// Display labels: prep, transfer + wait, server, return.
    pub labels: [&'static str; 4],
}

/// Fig. 5's phase names and row labels.
pub const FIG5_PHASES: RpcPhases = RpcPhases {
    prep: "header_prep",
    wait: "wait_reply",
    ret: "return",
    server: "header_proc",
    labels: [
        "header preparation",
        "transfer + wait",
        "header processing",
        "return from call",
    ],
};

/// §5's specialized-RPC phase names and row labels.
pub const SRPC_PHASES: RpcPhases = RpcPhases {
    prep: "marshal",
    wait: "wait_reply",
    ret: "unmarshal",
    server: "dispatch",
    labels: [
        "marshal + post call",
        "transfer + wait",
        "server dispatch",
        "unmarshal + return",
    ],
};

/// A Fig. 5-style budget: per-phase totals (integer picoseconds,
/// summed across calls) that partition the end-to-end time exactly.
#[derive(Debug, Clone)]
pub struct RpcBudget {
    /// Complete calls found in the span set.
    pub calls: u64,
    /// `(label, total ps)` rows, in paper order.
    pub rows: Vec<(&'static str, u64)>,
    /// Summed end-to-end round-trip picoseconds.
    pub end_to_end_ps: u64,
}

impl RpcBudget {
    /// The conservation invariant: rows sum exactly to end-to-end.
    pub fn is_conserved(&self) -> bool {
        self.rows.iter().map(|r| r.1).sum::<u64>() == self.end_to_end_ps
    }

    /// Render the per-call mean table.
    pub fn render(&self, title: &str) -> String {
        let per_call = |ps: u64| ps as f64 / 1e6 / self.calls.max(1) as f64;
        let mut out = format!("{title} (mean over {} calls, us):\n", self.calls);
        for (label, ps) in &self.rows {
            out.push_str(&format!("  {:<22} {:>9.3}\n", label, per_call(*ps)));
        }
        out.push_str(&format!(
            "  {:<22} {:>9.3}\n",
            "end-to-end",
            per_call(self.end_to_end_ps)
        ));
        out.push_str(&format!(
            "  conservation: {} ({} ps across {} calls)\n",
            if self.is_conserved() {
                "exact"
            } else {
                "VIOLATED"
            },
            self.end_to_end_ps,
            self.calls
        ));
        out
    }
}

/// Assemble the per-call budget from a span set: each call is the
/// `prep`/`wait`/`ret` triple sharing a [`shrimp_obs::MsgId`]; server
/// `server` spans (which carry no client id) are attributed to the call
/// whose wait window contains them; the wait remainder is transfer +
/// wait. All arithmetic is integer picoseconds, so the rows partition
/// the round trip exactly.
pub fn rpc_budget(spans: &[SpanRec], phases: &RpcPhases) -> RpcBudget {
    let mut per: std::collections::BTreeMap<u64, [Option<(SimTime, SimTime)>; 3]> =
        std::collections::BTreeMap::new();
    for s in spans {
        if s.layer != Layer::User || !s.msg.is_some() {
            continue;
        }
        let idx = if s.name == phases.prep {
            0
        } else if s.name == phases.wait {
            1
        } else if s.name == phases.ret {
            2
        } else {
            continue;
        };
        per.entry(s.msg.0).or_insert([None; 3])[idx] = Some((s.start, s.end));
    }
    let servers: Vec<(SimTime, SimTime)> = spans
        .iter()
        .filter(|s| s.name == phases.server)
        .map(|s| (s.start, s.end))
        .collect();

    let (mut prep, mut xfer, mut srv, mut ret, mut e2e, mut calls) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for triple in per.values() {
        let (Some(p), Some(w), Some(r)) = (triple[0], triple[1], triple[2]) else {
            continue;
        };
        calls += 1;
        prep += p.1.since(p.0).as_ps();
        let hp: u64 = servers
            .iter()
            .filter(|(s, e)| *s >= w.0 && *e <= w.1)
            .map(|(s, e)| e.since(*s).as_ps())
            .sum();
        srv += hp;
        xfer += w.1.since(w.0).as_ps().saturating_sub(hp);
        ret += r.1.since(r.0).as_ps();
        e2e += r.1.since(p.0).as_ps();
    }
    RpcBudget {
        calls,
        rows: vec![
            (phases.labels[0], prep),
            (phases.labels[1], xfer),
            (phases.labels[2], srv),
            (phases.labels[3], ret),
        ],
        end_to_end_ps: e2e,
    }
}

/// Per-message conservation sweep: every traced message's segments
/// must sum exactly to its end-to-end latency. Returns the number of
/// messages checked and whether every one conserved.
pub fn check_conservation(spans: &[SpanRec]) -> (usize, bool) {
    let ids = message_ids(spans);
    let ok = ids
        .iter()
        .filter_map(|&id| breakdown(spans, id))
        .all(|b| b.is_conserved());
    (ids.len(), ok)
}

fn render_layer_table(spans: &[SpanRec]) -> String {
    let stats = layer_stats(spans);
    let mut out = String::from(
        "per-layer phases:\n  phase                       count    mean us     min us     max us    total us\n",
    );
    for st in &stats {
        out.push_str(&format!(
            "  {:<26} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>11.3}\n",
            format!("{}/{}", st.layer, st.name),
            st.count,
            st.mean().as_us(),
            st.min.as_us(),
            st.max.as_us(),
            st.total.as_us(),
        ));
    }
    out
}

/// The deterministic fault plan chaos profiles arm for the RPC
/// workloads: a mesh-wide brownout landing mid-traffic plus an IPT
/// violation on the server node.
pub fn rpc_chaos_plan() -> FaultPlan {
    FaultPlan::scripted(vec![
        FaultEvent {
            at: SimTime::ZERO + SimDur::from_us(450.0),
            kind: FaultKind::Brownout {
                factor: 2.0,
                dur: SimDur::from_us(120.0),
            },
        },
        FaultEvent {
            at: SimTime::ZERO + SimDur::from_us(500.0),
            kind: FaultKind::IptViolation { node: 1 },
        },
    ])
}

/// The scripted plan the chaos matrix uses for the figure workloads
/// (an IPT violation timed to land mid-traffic).
pub fn figure_chaos_plan() -> FaultPlan {
    FaultPlan::scripted(vec![FaultEvent {
        at: SimTime::ZERO + SimDur::from_us(900.0),
        kind: FaultKind::IptViolation { node: 1 },
    }])
}

/// Everything one profile run produced.
#[derive(Debug)]
pub struct ProfOutcome {
    /// Workload name.
    pub name: &'static str,
    /// The recorder holding every span and instant of the run.
    pub recorder: Arc<Recorder>,
    /// Rendered human-readable report.
    pub report: String,
    /// True when every conservation check passed.
    pub conserved: bool,
}

impl ProfOutcome {
    /// The run as Chrome trace-event JSON (Perfetto-loadable).
    pub fn trace_json(&self) -> String {
        perfetto::export(&self.recorder.spans(), &self.recorder.instants())
    }
}

/// Run one observed profile. Returns `None` for an unknown workload
/// name (see [`WORKLOADS`]).
pub fn profile(name: &str, chaos: bool) -> Option<ProfOutcome> {
    let rec = Recorder::new();
    let (name, mut report): (&'static str, String) = match name {
        "fig5" => {
            run_vrpc_null(&rec, chaos.then(rpc_chaos_plan).as_ref());
            let budget = rpc_budget(&rec.spans(), &FIG5_PHASES);
            let mut report = budget.render("fig5 VRPC null-call budget");
            if !budget.is_conserved() {
                report.push_str("  ERROR: budget rows do not sum to end-to-end time\n");
            }
            ("fig5", report)
        }
        "srpc" => {
            run_srpc_null(&rec, chaos.then(rpc_chaos_plan).as_ref());
            let budget = rpc_budget(&rec.spans(), &SRPC_PHASES);
            let mut report = budget.render("srpc specialized null-call decomposition");
            // The §5 software-only rerun: outside the recorder scope so
            // its spans don't pollute this profile.
            let sw_us = specialized_software_overhead();
            report.push_str(&format!(
                "  software-only rerun     {sw_us:>9.3}  (paper: < 1 us of software overhead)\n"
            ));
            ("srpc", report)
        }
        "fig3" => {
            if chaos {
                run_chaos_cell(&rec, Workload::Vmmc);
            } else {
                let _g = rec.install();
                let _ = workload_fig3(no_alloc_counter);
            }
            ("fig3", String::new())
        }
        "fig7" => {
            if chaos {
                run_chaos_cell(&rec, Workload::Socket);
            } else {
                let _g = rec.install();
                let _ = workload_fig7(no_alloc_counter);
            }
            ("fig7", String::new())
        }
        "coll4x4" => {
            if chaos {
                run_chaos_cell(&rec, Workload::Coll);
            } else {
                let _g = rec.install();
                let _ = workload_coll4x4(no_alloc_counter);
            }
            ("coll4x4", String::new())
        }
        "rmc" => {
            if chaos {
                run_chaos_cell(&rec, Workload::Rmc);
                ("rmc", String::new())
            } else {
                let section = run_rmc_fetch(&rec);
                ("rmc", section)
            }
        }
        _ => return None,
    };

    let spans = rec.spans();
    let (msgs, conserved_msgs) = check_conservation(&spans);
    report.push_str(&render_layer_table(&spans));
    report.push_str(&format!(
        "spans: {}   messages: {}   fault events: {}\n",
        spans.len(),
        msgs,
        rec.instants().len()
    ));
    report.push_str(&format!(
        "per-message conservation: {}\n",
        if conserved_msgs { "exact" } else { "VIOLATED" }
    ));

    // Budget conservation is already part of the rendered report for
    // the RPC workloads; fold it into the single verdict.
    let conserved = conserved_msgs && !report.contains("VIOLATED");
    Some(ProfOutcome {
        name,
        recorder: rec,
        report,
        conserved,
    })
}

/// The committed decomposition report for `workload`: the `simprof`
/// header line plus the profile's report.
///
/// # Panics
///
/// Panics on an unknown workload, or when a conservation check fails,
/// so a breach can never be committed or pass a check.
pub fn decomposition(workload: &str) -> String {
    let out = profile(workload, false).expect("a simprof workload");
    assert!(
        out.conserved,
        "simprof {workload}: conservation check failed"
    );
    format!("simprof {}\n{}", out.name, out.report)
}

/// Drive a chaos-matrix cell with the recorder installed, then overlay
/// its fault log as instant events.
fn run_chaos_cell(rec: &Arc<Recorder>, workload: Workload) {
    let _g = rec.install();
    let plan = figure_chaos_plan();
    let (_outcome, events) = run_cell_events(workload, "simprof-chaos", &plan);
    for (at, what) in events {
        rec.instant(at, None, what);
    }
}

/// The one-sided workload under observation: a reader on node 0
/// fetching one page per round from node 1's read-enabled export. The
/// interesting property the profile audits is the span shape of a
/// fetch: requester-side issue + park, the responder's NIC serving the
/// read with its processor idle, and the reply deposits — all summing
/// exactly to the observed fetch latency. Returns the responder-engine
/// section (queue depth from the NIC's serving counters, plus the
/// queue-depth instants the NIC emitted) for the rendered report.
fn run_rmc_fetch(rec: &Arc<Recorder>) -> String {
    use shrimp_core::ExportOpts;
    use shrimp_mesh::NodeId;
    use shrimp_node::{CacheMode, PAGE_SIZE};

    let _g = rec.install();
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let names: shrimp_sim::SimChannel<shrimp_core::BufferName> = shrimp_sim::SimChannel::new();
    {
        let owner = system.endpoint(1, "prof-owner");
        let names = names.clone();
        kernel.spawn("prof-owner", move |ctx| {
            let buf = owner.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let fill: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 241) as u8).collect();
            owner.proc_().write(ctx, buf, &fill).unwrap();
            let name = owner
                .export(
                    ctx,
                    buf,
                    PAGE_SIZE,
                    ExportOpts {
                        read: true,
                        ..Default::default()
                    },
                )
                .unwrap();
            names.send(&ctx.handle(), name);
        });
    }
    {
        let reader = system.endpoint(0, "prof-reader");
        kernel.spawn("prof-reader", move |ctx| {
            let name = names.recv(ctx);
            let src = reader.import(ctx, NodeId(1), name).unwrap();
            let dst = reader.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            for _ in 0..WARMUP + ROUNDS {
                reader.fetch(ctx, dst, &src, 0, PAGE_SIZE).unwrap();
            }
            let got = reader.proc_().peek(dst, PAGE_SIZE).unwrap();
            assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 241) as u8));
        });
    }
    kernel
        .run_until_quiescent()
        .expect("rmc profile run failed");

    // Responder-engine section: the serving-queue shape on the owner
    // node. Depth instants come from the NIC itself, so a FetchStall or
    // brownout that backs requests up shows here and in the trace.
    let report = system.report();
    let owner = &report.nics[1];
    let depth_events = rec
        .instants()
        .iter()
        .filter(|i| i.label.starts_with("fetch_queue_depth="))
        .count();
    format!(
        "responder engine (node 1):\n  fetch requests served: {}   reply packets: {}   denials: {}\n  queue depth peak: {}   depth events: {depth_events}\n",
        owner.fetch_reqs_in, owner.fetch_replies_out, owner.fetch_denials, owner.fetch_queue_peak
    )
}

/// The Fig. 5 workload under observation: a null VRPC call with a
/// 4-byte INOUT argument over the automatic-update stream (the paper's
/// fastest compatible variant), optionally under a fault plan.
fn run_vrpc_null(rec: &Arc<Recorder>, plan: Option<&FaultPlan>) {
    let _g = rec.install();
    let (_, log) = vrpc_run(VrpcVariant::Au1Copy, 4, CostModel::shrimp_prototype(), plan);
    overlay_faults(rec, log);
}

/// The §5 workload under observation: the specialized RPC's null call
/// with a 4-byte INOUT argument, optionally under a fault plan.
fn run_srpc_null(rec: &Arc<Recorder>, plan: Option<&FaultPlan>) {
    let _g = rec.install();
    let (_, log) = specialized_run(4, CostModel::shrimp_prototype(), plan);
    overlay_faults(rec, log);
}

/// Overlay a run's fault log on the trace as instant events.
fn overlay_faults(rec: &Arc<Recorder>, log: Option<Arc<FaultLog>>) {
    for (at, what) in log.iter().flat_map(|log| log.snapshot()) {
        rec.instant(at, None, what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_budget_sums_exactly_and_matches_paper_shape() {
        let out = profile("fig5", false).unwrap();
        assert!(out.conserved, "report:\n{}", out.report);
        let budget = rpc_budget(&out.recorder.spans(), &FIG5_PHASES);
        assert!(budget.is_conserved());
        assert_eq!(budget.calls as u32, WARMUP + ROUNDS);
        // Paper Fig. 5 shape for a null call: every component nonzero,
        // round trip ~29 us, prep the largest client-side slice.
        let per_call = |ps: u64| ps as f64 / 1e6 / budget.calls as f64;
        let rtt = per_call(budget.end_to_end_ps);
        assert!((25.0..35.0).contains(&rtt), "null RTT {rtt:.1} us");
        for (label, ps) in &budget.rows {
            assert!(*ps > 0, "{label} must be nonzero");
        }
        assert!(per_call(budget.rows[0].1) > per_call(budget.rows[3].1));
    }

    #[test]
    fn srpc_decomposition_conserves() {
        let out = profile("srpc", false).unwrap();
        assert!(out.conserved, "report:\n{}", out.report);
        let budget = rpc_budget(&out.recorder.spans(), &SRPC_PHASES);
        assert!(budget.is_conserved());
        assert!(budget.calls > 0);
    }

    #[test]
    fn rmc_fetch_profile_traces_and_conserves() {
        let out = profile("rmc", false).unwrap();
        let spans = out.recorder.spans();
        let (msgs, ok) = check_conservation(&spans);
        assert!(msgs > 0, "fetches must appear as traced messages");
        assert!(ok, "fetch spans violated conservation");
        assert!(out.conserved, "report:\n{}", out.report);
        // The responder's CPU never runs: no server-side User spans.
        assert!(
            spans
                .iter()
                .all(|s| s.layer != Layer::User || !s.name.contains("dispatch")),
            "a one-sided fetch must not dispatch server code"
        );
    }

    #[test]
    fn per_message_conservation_holds_across_workloads() {
        for name in ["fig3", "fig5", "fig7", "rmc"] {
            let out = profile(name, false).unwrap();
            let spans = out.recorder.spans();
            let (msgs, ok) = check_conservation(&spans);
            assert!(msgs > 0, "{name}: no traced messages");
            assert!(ok, "{name}: conservation violated");
            assert!(out.conserved, "{name} report:\n{}", out.report);
        }
    }

    #[test]
    fn chaos_profile_overlays_fault_events() {
        let out = profile("fig5", true).unwrap();
        assert!(
            !out.recorder.instants().is_empty(),
            "chaos run must record fault instants"
        );
        let json = out.trace_json();
        assert!(json.contains("\"ph\":\"i\""));
    }
}
