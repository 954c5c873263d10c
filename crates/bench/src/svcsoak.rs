//! The chaos-soaked SLO soak harness for `shrimp-svc`.
//!
//! Where `svcbench` measures the healthy serving curve and a single
//! failover, the soak composes the open-loop load engine with the
//! *full* self-healing surface at once:
//!
//! * a **brownout** dilating every mesh link mid-run,
//! * a **DMA stall** pinning one primary's incoming ring (exercises
//!   hedged reads against the still-healthy backup replica and tiered
//!   admission shedding as the stalled shard's backlog builds),
//! * a **primary crash** (exercises promotion and the watchdog's
//!   automatic re-replication of the promoted shard),
//! * scripted **live migrations** injected as [`FaultKind::Directive`]
//!   events (exercises the planned snapshot → drain → epoch-bump
//!   handoff while the shard is under load).
//!
//! A fault-free baseline of the same load runs first so the soak can
//! state its service-level objective in relative terms, and the soaked
//! run is asserted against absolute bounds: **zero lost acknowledged
//! writes**, p999 latency under the configured SLO, and a bounded shed
//! fraction. Everything is virtual-time and deterministic — the
//! committed `BENCH_svcsoak.json` digest is a bit-for-bit replay gate
//! (`artifacts svcsoak --check`), and the obs recorder rides along so the
//! service-layer span count is part of the fingerprint.

use std::sync::Arc;

use shrimp_mesh::{Mesh2D, TopologyRef};
use shrimp_obs::{Layer, Recorder};
use shrimp_sim::{FaultEvent, FaultKind, FaultPlan, Fnv1a, SimDur, SimTime};
use shrimp_svc::{ClusterEvent, LoadPlan, LoadStats, SvcCluster, SvcConfig};

use crate::artifact::{Json, Output};
use crate::svcbench;

/// Soak shape: mesh, engines, load mix, the fault matrix, and the SLO
/// the soaked run must hold.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Fabric the cluster is built over (must be in-order; engines are
    /// spread over its enumerated node list).
    pub topology: TopologyRef,
    /// Number of load engines (spread across the nodes).
    pub engines: usize,
    /// Requests per engine.
    pub requests: u64,
    /// Schedule seed.
    pub seed: u64,
    /// Offered rate per engine (ops per virtual second).
    pub rate: f64,
    /// First-arrival offset (bindings and replication warm up first).
    pub warmup: SimDur,
    /// Fraction of requests that are multi-key scans.
    pub scan_fraction: f64,
    /// Keys per scan.
    pub scan_len: u32,
    /// Admission-control queue limit (the tiers shed scans at half of
    /// this, writes at three quarters, reads at the full limit).
    pub queue_limit: usize,
    /// How long a read waits on the primary before hedging to the
    /// backup replica (the soak hedges more aggressively than the
    /// service default so the brownout exercises the path).
    pub hedge_after: SimDur,
    /// Brownout start.
    pub brownout_at: SimDur,
    /// Brownout latency dilation factor.
    pub brownout_factor: f64,
    /// Brownout duration.
    pub brownout_dur: SimDur,
    /// Node whose incoming DMA the plan stalls (a shard primary whose
    /// backup stays healthy — the hedged-read scenario).
    pub stall_node: usize,
    /// Stall start.
    pub stall_at: SimDur,
    /// Stall duration.
    pub stall_dur: SimDur,
    /// Node whose daemon the plan crashes (a shard primary).
    pub crash_node: usize,
    /// Crash instant.
    pub crash_at: SimDur,
    /// Daemon downtime.
    pub downtime: SimDur,
    /// Scripted live migrations: `(at, shard, destination node)`.
    pub migrations: Vec<(SimDur, usize, usize)>,
    /// SLO: the soaked run's p999 arrival-to-completion latency must
    /// stay under this.
    pub slo_p999: SimDur,
    /// SLO: soaked `shed / (issued + shed)` must stay under this.
    pub max_shed_fraction: f64,
}

impl SoakConfig {
    /// The committed configuration: a 4×4 mesh under a brownout, a
    /// primary crash, and two live migrations.
    pub fn paper_4x4() -> SoakConfig {
        SoakConfig {
            topology: Arc::new(Mesh2D::new(4, 4)),
            engines: 16,
            requests: 224,
            seed: 7,
            rate: 4_000.0,
            // 4×4 warm-up (16 serial binder exchanges per engine)
            // finishes at ~16.3 ms virtual.
            warmup: SimDur::from_us(20_000.0),
            scan_fraction: 0.08,
            scan_len: 6,
            queue_limit: 10,
            hedge_after: SimDur::from_us(100.0),
            brownout_at: SimDur::from_us(24_000.0),
            brownout_factor: 4.0,
            brownout_dur: SimDur::from_us(5_000.0),
            stall_node: 0,
            stall_at: SimDur::from_us(25_000.0),
            stall_dur: SimDur::from_us(3_000.0),
            crash_node: 1,
            crash_at: SimDur::from_us(32_000.0),
            downtime: SimDur::from_us(6_000.0),
            migrations: vec![
                (SimDur::from_us(29_000.0), 0, 2),
                (SimDur::from_us(42_000.0), 5, 9),
            ],
            slo_p999: SimDur::from_us(10_000.0),
            max_shed_fraction: 0.20,
        }
    }

    /// A small CI-sized variant on the 2×2 prototype: two engines, one
    /// migration, the same brownout + crash composition.
    pub fn smoke() -> SoakConfig {
        SoakConfig {
            topology: Arc::new(Mesh2D::new(2, 2)),
            engines: 2,
            requests: 160,
            seed: 7,
            rate: 12_000.0,
            // 2×2 warm-up completes at ~4.1 ms virtual.
            warmup: SimDur::from_us(6_000.0),
            scan_fraction: 0.10,
            scan_len: 4,
            queue_limit: 16,
            hedge_after: SimDur::from_us(100.0),
            brownout_at: SimDur::from_us(7_500.0),
            brownout_factor: 4.0,
            brownout_dur: SimDur::from_us(2_000.0),
            stall_node: 0,
            stall_at: SimDur::from_us(8_000.0),
            stall_dur: SimDur::from_us(1_200.0),
            crash_node: 1,
            crash_at: SimDur::from_us(12_000.0),
            downtime: SimDur::from_us(2_500.0),
            migrations: vec![(SimDur::from_us(9_700.0), 0, 2)],
            slo_p999: SimDur::from_us(9_000.0),
            max_shed_fraction: 0.20,
        }
    }

    /// Grid dimensions for report labels (linear fallback for fabrics
    /// without a grid layout).
    fn dims(&self) -> (usize, usize) {
        self.topology
            .grid_dims()
            .unwrap_or((self.topology.len(), 1))
    }

    /// The soaked run's scripted fault plan, time-sorted.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut events = vec![
            FaultEvent {
                at: SimTime::ZERO + self.brownout_at,
                kind: FaultKind::Brownout {
                    factor: self.brownout_factor,
                    dur: self.brownout_dur,
                },
            },
            FaultEvent {
                at: SimTime::ZERO + self.stall_at,
                kind: FaultKind::DmaStall {
                    node: self.stall_node,
                    dur: self.stall_dur,
                },
            },
            FaultEvent {
                at: SimTime::ZERO + self.crash_at,
                kind: FaultKind::DaemonCrash {
                    node: self.crash_node,
                    downtime: self.downtime,
                },
            },
        ];
        for &(at, shard, to) in &self.migrations {
            events.push(FaultEvent {
                at: SimTime::ZERO + at,
                kind: FaultKind::Directive {
                    op: "migrate",
                    a: shard as u64,
                    b: to as u64,
                },
            });
        }
        events.sort_by_key(|e| e.at);
        FaultPlan::scripted(events)
    }
}

/// One run's measured quantities (baseline or soaked). All virtual, so
/// replay-stable.
#[derive(Debug, Clone, Default)]
pub struct SoakRun {
    /// Arrivals handed to workers.
    pub issued: u64,
    /// Arrivals shed by admission control (all classes).
    pub shed: u64,
    /// Scans shed (tier 1: half the queue limit).
    pub shed_scans: u64,
    /// Writes shed (tier 2: three quarters of the limit).
    pub shed_writes: u64,
    /// Reads shed (tier 3: the full limit).
    pub shed_reads: u64,
    /// Completed requests.
    pub ok: u64,
    /// Failed requests.
    pub errors: u64,
    /// Reads the client hedged to the backup replica.
    pub hedges: u64,
    /// Hedged reads the backup answered.
    pub hedge_wins: u64,
    /// Median latency, picoseconds.
    pub p50_ps: u64,
    /// 99th percentile latency, picoseconds.
    pub p99_ps: u64,
    /// 99.9th percentile latency, picoseconds.
    pub p999_ps: u64,
    /// Worst request stall, picoseconds.
    pub max_ps: u64,
    /// Latency histogram digest.
    pub hist_digest: u64,
    /// Service-layer obs spans the run recorded.
    pub service_spans: u64,
}

impl SoakRun {
    fn from_stats(stats: &LoadStats, service_spans: u64) -> SoakRun {
        SoakRun {
            issued: stats.issued,
            shed: stats.shed,
            shed_scans: stats.shed_scans,
            shed_writes: stats.shed_writes,
            shed_reads: stats.shed_reads,
            ok: stats.ok,
            errors: stats.errors,
            hedges: stats.hedges,
            hedge_wins: stats.hedge_wins,
            p50_ps: stats.latency.percentile(0.50),
            p99_ps: stats.latency.percentile(0.99),
            p999_ps: stats.latency.percentile(0.999),
            max_ps: stats.latency.max(),
            hist_digest: stats.latency.digest(),
            service_spans,
        }
    }

    /// `shed / (issued + shed)`.
    pub fn shed_fraction(&self) -> f64 {
        let offered = self.issued + self.shed;
        if offered == 0 {
            0.0
        } else {
            self.shed as f64 / offered as f64
        }
    }
}

/// The soak's full outcome: both runs plus the self-healing audit.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// The fault-free run of the same load.
    pub baseline: SoakRun,
    /// The run under the fault matrix.
    pub soaked: SoakRun,
    /// Acknowledged writes the engines logged during the soaked run.
    pub acked_writes: u64,
    /// Acked writes missing from the authoritative stores — asserted
    /// zero.
    pub lost_acks: u64,
    /// Promotions the watchdog performed.
    pub promotions: u64,
    /// Completed live migrations.
    pub migrated: u64,
    /// Re-replications (a promoted or migrated shard regaining its
    /// backup).
    pub rearmed: u64,
    /// Deterministic cluster event log of the soaked run.
    pub event_log: String,
    /// Post-soak cluster state fingerprint.
    pub state_digest: u64,
}

/// Replay-stable digest over the whole soak (both runs, the healing
/// audit, and the event log).
pub fn soak_digest(o: &SoakOutcome) -> u64 {
    let mut h = Fnv1a::new();
    for run in [&o.baseline, &o.soaked] {
        for v in [
            run.issued,
            run.shed,
            run.shed_scans,
            run.shed_writes,
            run.shed_reads,
            run.ok,
            run.errors,
            run.hedges,
            run.hedge_wins,
            run.p50_ps,
            run.p99_ps,
            run.p999_ps,
            run.max_ps,
            run.hist_digest,
            run.service_spans,
        ] {
            h.write_u64(v);
        }
    }
    for v in [
        o.acked_writes,
        o.lost_acks,
        o.promotions,
        o.migrated,
        o.rearmed,
        o.state_digest,
    ] {
        h.write_u64(v);
    }
    h.write(o.event_log.as_bytes());
    h.finish()
}

/// [`svcbench::drive`] with the soak's hedged reads, under an obs
/// recorder: returns the merged stats, the cluster, and the
/// service-layer span count.
fn drive(
    cfg: &SoakConfig,
    plan: &LoadPlan,
    faults: Option<&FaultPlan>,
) -> (LoadStats, Arc<SvcCluster>, u64) {
    let rec = Recorder::new();
    let _guard = rec.install();
    let hedge = |scfg: &mut SvcConfig| {
        scfg.hedge_reads = true;
        scfg.hedge_after = cfg.hedge_after;
    };
    let (merged, cluster) = svcbench::drive(&cfg.topology, cfg.engines, hedge, plan, faults);
    let service_spans = rec
        .spans()
        .iter()
        .filter(|s| s.layer == Layer::Service)
        .count() as u64;
    (merged, cluster, service_spans)
}

fn load_plan(cfg: &SoakConfig) -> LoadPlan {
    let mut plan = LoadPlan::new(cfg.seed, cfg.requests, cfg.rate);
    plan.start = cfg.warmup;
    plan.scan_fraction = cfg.scan_fraction;
    plan.scan_len = cfg.scan_len;
    plan.queue_limit = cfg.queue_limit;
    plan
}

/// Run the soak: fault-free baseline, then the soaked run under the
/// composed fault matrix, then the self-healing audit.
///
/// # Panics
///
/// Panics when any acknowledged write is missing from the
/// authoritative stores, when the event log lacks the promote /
/// migrate / rearm traversal the plan scripts, when the soaked p999
/// exceeds `cfg.slo_p999`, or when the shed fraction exceeds
/// `cfg.max_shed_fraction`.
pub fn run_soak(cfg: &SoakConfig) -> SoakOutcome {
    let plan = load_plan(cfg);
    let (base, _, base_spans) = drive(cfg, &plan, None);
    assert_eq!(base.errors, 0, "fault-free soak baseline must not error");

    let (stats, cluster, spans) = drive(cfg, &plan, Some(&cfg.fault_plan()));

    // Zero lost acknowledged writes across the brownout, the crash
    // promotion, the re-replications, and every live migration.
    let lost = cluster.lost_acks(&stats.acked);
    assert_eq!(lost, 0, "acknowledged writes were lost during the soak");

    let events = cluster.events();
    let count = |f: fn(&ClusterEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    let promotions = count(|e| matches!(e, ClusterEvent::Promoted(_)));
    let migrated = count(|e| matches!(e, ClusterEvent::Migrated { .. }));
    let rearmed = count(|e| matches!(e, ClusterEvent::Rearmed { .. }));
    assert!(
        promotions >= 1,
        "crashing a primary's node must promote at least one shard"
    );
    assert_eq!(
        migrated,
        cfg.migrations.len() as u64,
        "every scripted migration must complete"
    );
    assert!(
        rearmed >= promotions + migrated,
        "every promoted and migrated shard must regain a backup \
         (rearmed={rearmed} promotions={promotions} migrated={migrated})"
    );

    let outcome = SoakOutcome {
        baseline: SoakRun::from_stats(&base, base_spans),
        soaked: SoakRun::from_stats(&stats, spans),
        acked_writes: stats.acked.len() as u64,
        lost_acks: lost,
        promotions,
        migrated,
        rearmed,
        event_log: cluster.event_log(),
        state_digest: cluster.state_digest(),
    };

    // The soak must actually exercise the resilience surface it
    // audits: the stalled primary has to push some read past the
    // hedge trigger and some backlog past the shedding tiers.
    assert!(
        outcome.soaked.hedges >= 1,
        "the stalled primary must drive at least one hedged read"
    );
    assert!(
        outcome.soaked.shed >= 1,
        "the stalled primary must drive tiered admission shedding"
    );
    // The SLO: tail latency bounded even under the composed fault
    // matrix, and tiered admission control sheds at a bounded rate.
    assert!(
        outcome.soaked.p999_ps <= cfg.slo_p999.as_ps(),
        "soaked p999 {} ps over the {} ps SLO",
        outcome.soaked.p999_ps,
        cfg.slo_p999.as_ps()
    );
    assert!(
        outcome.soaked.shed_fraction() <= cfg.max_shed_fraction,
        "soaked shed fraction {:.4} over the {:.4} bound",
        outcome.soaked.shed_fraction(),
        cfg.max_shed_fraction
    );
    outcome
}

fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Render the committed `results/svc_soak.txt` (byte-identical across
/// replays).
pub fn render_report(cfg: &SoakConfig, o: &SoakOutcome) -> String {
    let (width, height) = cfg.dims();
    let mut out = format!(
        "svc chaos soak mesh={}x{} engines={} requests/engine={} rate/engine={:.0} seed={}\n\
         faults: brownout x{:.1} at_us={:.0} dur_us={:.0}; dma-stall node={} at_us={:.0} \
         dur_us={:.0}; crash node={} at_us={:.0} downtime_us={:.0}; migrations={}\n",
        width,
        height,
        cfg.engines,
        cfg.requests,
        cfg.rate,
        cfg.seed,
        cfg.brownout_factor,
        us(cfg.brownout_at.as_ps()),
        us(cfg.brownout_dur.as_ps()),
        cfg.stall_node,
        us(cfg.stall_at.as_ps()),
        us(cfg.stall_dur.as_ps()),
        cfg.crash_node,
        us(cfg.crash_at.as_ps()),
        us(cfg.downtime.as_ps()),
        cfg.migrations
            .iter()
            .map(|(at, s, to)| format!("shard{}->node{}@{:.0}us", s, to, us(at.as_ps())))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push_str(&format!(
        "{:>10} {:>8} {:>6} {:>6} {:>6} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9}\n",
        "run",
        "issued",
        "shed",
        "ok",
        "errors",
        "hedges",
        "wins",
        "p50_us",
        "p99_us",
        "p999_us",
        "max_us",
    ));
    for (name, run) in [("baseline", &o.baseline), ("soaked", &o.soaked)] {
        out.push_str(&format!(
            "{:>10} {:>8} {:>6} {:>6} {:>6} {:>8} {:>8} {:>8.2} {:>9.2} {:>9.2} {:>9.2}\n",
            name,
            run.issued,
            run.shed,
            run.ok,
            run.errors,
            run.hedges,
            run.hedge_wins,
            us(run.p50_ps),
            us(run.p99_ps),
            us(run.p999_ps),
            us(run.max_ps),
        ));
    }
    out.push_str(&format!(
        "shed tiers (soaked): scans={} writes={} reads={} fraction={:.4} (bound {:.4})\n",
        o.soaked.shed_scans,
        o.soaked.shed_writes,
        o.soaked.shed_reads,
        o.soaked.shed_fraction(),
        cfg.max_shed_fraction,
    ));
    out.push_str(&format!(
        "slo: p999 {:.2} us <= {:.2} us; acked_writes={} lost_acks={} promotions={} \
         migrated={} rearmed={} service_spans={}\n",
        us(o.soaked.p999_ps),
        us(cfg.slo_p999.as_ps()),
        o.acked_writes,
        o.lost_acks,
        o.promotions,
        o.migrated,
        o.rearmed,
        o.soaked.service_spans,
    ));
    for line in o.event_log.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Render the committed `BENCH_svcsoak.json` from the full soak's
/// outcome, closed by `digests` (the smoke soak's digest, which CI's
/// soak job gates on, then the full soak's).
fn render_json(cfg: &SoakConfig, o: &SoakOutcome, digests: &[(&str, u64)]) -> String {
    let (width, height) = cfg.dims();
    let mut json = Json::new(
        &[
            "Chaos-soaked SLO soak for the shrimp-svc self-healing serving",
            "stack (brownout + primary crash + live migrations under load),",
            "generated by `cargo run --release -p shrimp-bench --bin artifacts",
            "-- svcsoak --write`. All quantities are virtual-time and",
            "deterministic: regenerating on any host must reproduce this file",
            "byte-identically. CI's svc-soak job re-runs the smoke soak and",
            "gates on smoke_digest; the default (4x4) run gates on",
            "soak_digest.",
        ],
        &format!(
            "\"mesh\": \"{}x{}\", \"engines\": {}, \"requests_per_engine\": {}, \
             \"rate_per_engine\": {:.0}, \"seed\": {}, \"slo_p999_us\": {:.0}, \
             \"max_shed_fraction\": {:.2}, \"migrations\": {}",
            width,
            height,
            cfg.engines,
            cfg.requests,
            cfg.rate,
            cfg.seed,
            us(cfg.slo_p999.as_ps()),
            cfg.max_shed_fraction,
            cfg.migrations.len(),
        ),
    );
    for (name, run) in [("baseline", &o.baseline), ("soaked", &o.soaked)] {
        json.object(
            name,
            &format!(
                "\"issued\": {}, \"shed\": {}, \"shed_scans\": {}, \"shed_writes\": {}, \
                 \"shed_reads\": {}, \"ok\": {}, \"errors\": {}, \"hedges\": {}, \"hedge_wins\": {}, \
                 \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"p999_us\": {:.2}, \"max_us\": {:.2}, \
                 \"service_spans\": {}, \"hist_digest\": \"{:016x}\"",
                run.issued,
                run.shed,
                run.shed_scans,
                run.shed_writes,
                run.shed_reads,
                run.ok,
                run.errors,
                run.hedges,
                run.hedge_wins,
                us(run.p50_ps),
                us(run.p99_ps),
                us(run.p999_ps),
                us(run.max_ps),
                run.service_spans,
                run.hist_digest,
            ),
        );
    }
    json.object(
        "healing",
        &format!(
            "\"acked_writes\": {}, \"lost_acks\": {}, \"promotions\": {}, \
             \"migrated\": {}, \"rearmed\": {}, \"event_log\": \"{}\", \
             \"state_digest\": \"{:016x}\"",
            o.acked_writes,
            o.lost_acks,
            o.promotions,
            o.migrated,
            o.rearmed,
            o.event_log.trim_end().replace('\n', "; "),
            o.state_digest,
        ),
    );
    json.finish(digests)
}

/// The `svcsoak` artifact. The full run soaks the 4×4 configuration
/// and also the smoke one, whose digest the JSON commits for CI; a
/// smoke run soaks only the 2×2 configuration.
pub fn artifact(smoke: bool) -> Output {
    if smoke {
        let cfg = SoakConfig::smoke();
        let o = run_soak(&cfg);
        return Output {
            text: render_report(&cfg, &o),
            json: None,
            digests: vec![("smoke_digest", soak_digest(&o))],
        };
    }
    let cfg = SoakConfig::paper_4x4();
    let o = run_soak(&cfg);
    let digests = vec![
        ("smoke_digest", soak_digest(&run_soak(&SoakConfig::smoke()))),
        ("soak_digest", soak_digest(&o)),
    ];
    Output {
        text: render_report(&cfg, &o),
        json: Some(render_json(&cfg, &o, &digests)),
        digests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::committed_digest;

    #[test]
    fn smoke_soak_holds_slo_and_replays_bit_identically() {
        let cfg = SoakConfig::smoke();
        let a = run_soak(&cfg);
        assert_eq!(a.lost_acks, 0);
        assert!(a.promotions >= 1);
        assert_eq!(a.migrated, cfg.migrations.len() as u64);
        assert!(a.event_log.contains("migrate shard="));
        assert!(a.event_log.contains("promote shard="));
        assert!(a.event_log.contains("rearm shard="));
        assert!(a.soaked.service_spans > 0, "obs must capture service spans");
        // The soak exists to exercise degradation: the fault matrix
        // must actually cost the tail something relative to baseline.
        assert!(a.soaked.max_ps > a.baseline.max_ps);
        let b = run_soak(&cfg);
        assert_eq!(soak_digest(&a), soak_digest(&b), "soak must replay");
    }

    #[test]
    fn rendered_json_carries_every_digest() {
        let cfg = SoakConfig::smoke();
        let o = run_soak(&cfg);
        let digests = [
            ("smoke_digest", 0xdead_beef_dead_beef),
            ("soak_digest", soak_digest(&o)),
        ];
        let json = render_json(&cfg, &o, &digests);
        for (field, d) in digests {
            assert_eq!(committed_digest(&json, field), Some(d), "{field}");
        }
    }
}
