//! The KV serving benchmark: throughput vs. offered load, tail
//! latency, and failover measurement for `shrimp-svc`.
//!
//! Two experiments, both entirely in virtual time and therefore
//! bit-identically reproducible:
//!
//! * **Curve** — an open-loop sweep: for each offered rate a fresh
//!   mesh is built, one load engine per node drives Poisson arrivals
//!   with Zipfian keys through the sharded replicated cluster, and the
//!   merged per-request latency histogram yields p50/p95/p99/p999 plus
//!   achieved throughput. Past saturation the bounded engine queues
//!   shed arrivals and tail latency climbs — the knee the curve
//!   exists to show.
//! * **Failover** — the same load with a scripted
//!   [`FaultKind::DaemonCrash`] killing a shard primary mid-run. The
//!   harness verifies *zero lost acknowledged writes* against the
//!   authoritative post-run stores and reports the client-observed
//!   failover gap and the promotion log.
//!
//! Digests over every virtual quantity gate `BENCH_svc.json` in CI
//! (`artifacts svc --check`): an engine or service change that shifts
//! any latency bucket, shed count, or promotion instant fails the
//! check.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_mesh::{Mesh2D, TopologyRef};
use shrimp_sim::{FaultEvent, FaultKind, FaultPlan, Fnv1a, Kernel, SimDur, SimTime};
use shrimp_svc::{spawn_engine, LoadPlan, LoadStats, SvcCluster, SvcConfig};

use crate::artifact::{Json, Output};

/// Sweep shape: fabric, engines (one per node), and the offered rates.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Fabric the cluster is built over (must be in-order; the engines
    /// and shard servers are enumerated from its node list).
    pub topology: TopologyRef,
    /// Requests per engine per curve point.
    pub requests: u64,
    /// Schedule seed.
    pub seed: u64,
    /// Per-engine offered rates (ops per virtual second), one curve
    /// point each.
    pub rates: Vec<f64>,
    /// First-arrival offset — long enough for every engine's shard
    /// bindings to warm up first.
    pub warmup: SimDur,
    /// Failover cell: per-engine offered rate.
    pub failover_rate: f64,
    /// Failover cell: requests per engine (sets the run span).
    pub failover_requests: u64,
    /// Failover cell: node whose daemon the plan kills.
    pub crash_node: usize,
    /// Failover cell: crash instant.
    pub crash_at: SimDur,
    /// Failover cell: daemon downtime.
    pub downtime: SimDur,
}

impl SweepConfig {
    /// The committed configuration: a 4×4 mesh (16 shard servers, 16
    /// engines) swept from far under to far past saturation.
    pub fn paper_4x4() -> SweepConfig {
        SweepConfig {
            topology: Arc::new(Mesh2D::new(4, 4)),
            requests: 256,
            seed: 42,
            rates: vec![2_000.0, 8_000.0, 32_000.0, 128_000.0, 512_000.0],
            // Warm-up on 4×4 finishes at ~16.3 ms virtual (16 serial
            // ~1 ms binder exchanges per engine); arrivals must start
            // after it or the backlog drain pollutes every percentile.
            warmup: SimDur::from_us(20_000.0),
            // Below the ~145 kops saturation knee so the baseline run
            // carries no queueing tail and the failover gap isolates
            // the crash stall.
            failover_rate: 4_000.0,
            failover_requests: 256,
            crash_node: 1,
            crash_at: SimDur::from_us(26_000.0),
            downtime: SimDur::from_us(6_000.0),
        }
    }

    /// A small CI-sized variant on the 2×2 prototype.
    pub fn smoke() -> SweepConfig {
        SweepConfig {
            topology: Arc::new(Mesh2D::new(2, 2)),
            requests: 96,
            seed: 42,
            rates: vec![4_000.0, 256_000.0],
            // 2×2 warm-up completes at ~4.1 ms virtual.
            warmup: SimDur::from_us(6_000.0),
            failover_rate: 16_000.0,
            failover_requests: 128,
            crash_node: 1,
            crash_at: SimDur::from_us(9_000.0),
            downtime: SimDur::from_us(3_000.0),
        }
    }

    fn engines(&self) -> usize {
        self.topology.len()
    }

    /// Grid dimensions for report labels (linear fallback for fabrics
    /// without a grid layout).
    fn dims(&self) -> (usize, usize) {
        self.topology
            .grid_dims()
            .unwrap_or((self.topology.len(), 1))
    }
}

/// One measured point of the throughput-vs-offered-load curve. Every
/// field derives from virtual time, so the whole struct is
/// replay-stable.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Offered rate per engine (ops/s of virtual time).
    pub rate_per_engine: f64,
    /// Aggregate offered load (all engines), kops/s.
    pub offered_kops: f64,
    /// Arrivals handed to workers.
    pub issued: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Completed requests.
    pub ok: u64,
    /// Failed requests.
    pub errors: u64,
    /// Virtual span from first possible arrival to last completion,
    /// picoseconds.
    pub span_ps: u64,
    /// Achieved throughput over the span, kops/s.
    pub achieved_kops: f64,
    /// Latency percentiles (arrival to completion), picoseconds.
    pub p50_ps: u64,
    /// 95th percentile, picoseconds.
    pub p95_ps: u64,
    /// 99th percentile, picoseconds.
    pub p99_ps: u64,
    /// 99.9th percentile, picoseconds.
    pub p999_ps: u64,
    /// Mean latency, picoseconds.
    pub mean_ps: u64,
    /// Latency histogram digest (buckets + sidecars).
    pub hist_digest: u64,
}

/// The failover cell's measured outcome.
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// Completed requests.
    pub ok: u64,
    /// Failed requests (expected: the crashed shard's outage window).
    pub errors: u64,
    /// Acknowledged writes the engines logged.
    pub acked_writes: u64,
    /// Acked writes missing from the authoritative stores — the
    /// harness asserts this is zero.
    pub lost_acks: u64,
    /// Promotions the watchdog performed.
    pub promotions: usize,
    /// Deterministic promotion log.
    pub promotion_log: String,
    /// Closed client-observed outage windows (error → next success on
    /// the same shard). Zero when the client retry budget rides the
    /// whole failover out without surfacing an error.
    pub outages: usize,
    /// Longest request stall in the fault-free baseline at the same
    /// load, picoseconds.
    pub baseline_max_ps: u64,
    /// Longest request stall in the faulted run, picoseconds — the
    /// request that spanned the outage.
    pub max_ps: u64,
    /// The measured failover gap: the worst client-observed stall in
    /// excess of the fault-free baseline, picoseconds.
    pub gap_ps: u64,
    /// Post-run cluster state fingerprint.
    pub state_digest: u64,
    /// Latency histogram digest.
    pub hist_digest: u64,
}

/// Build a system over `topology`, spawn the chained cluster (`tune`
/// adjusts its config) and `engines` load engines spread evenly over
/// the enumerated nodes (one per node when `engines` is the node
/// count), run to quiescence, and return the merged stats plus the
/// cluster for post-run checks. A run under `faults` also logs acked
/// writes for the lost-ack audit.
pub(crate) fn drive(
    topology: &TopologyRef,
    engines: usize,
    tune: impl FnOnce(&mut SvcConfig),
    plan: &LoadPlan,
    faults: Option<&FaultPlan>,
) -> (LoadStats, Arc<SvcCluster>) {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_topology(Arc::clone(topology)));
    system.apply_faults(faults.unwrap_or(&FaultPlan::empty()));
    let nodes = system.len();
    let mut scfg = SvcConfig::chained(nodes);
    // One client binding per node, plus slack for binds abandoned
    // mid-establishment across failover and epoch bumps.
    scfg.conns_per_shard = nodes + 4;
    tune(&mut scfg);
    let cluster = SvcCluster::spawn(&system, scfg);
    let all: Vec<usize> = system.topology().nodes().map(|n| n.0).collect();
    let step = (all.len() / engines.max(1)).max(1);
    let slots: Vec<Arc<Mutex<Option<LoadStats>>>> = (0..engines)
        .map(|e| {
            let home = all[(e * step) % all.len()];
            spawn_engine(&cluster, home, e as u64, plan, faults.is_some())
        })
        .collect();
    kernel.run_until_quiescent().expect("svc cell must quiesce");
    let mut merged = LoadStats::default();
    for slot in &slots {
        let stats = slot.lock();
        merged.merge(stats.as_ref().expect("engine must finish"));
    }
    (merged, cluster)
}

/// Run one curve point at `rate` ops/s per engine.
pub fn run_point(cfg: &SweepConfig, rate: f64) -> CurvePoint {
    let mut plan = LoadPlan::new(cfg.seed, cfg.requests, rate);
    plan.start = cfg.warmup;
    let start_ps = plan.start.as_ps();
    let (stats, _cluster) = drive(&cfg.topology, cfg.engines(), |_| {}, &plan, None);
    assert_eq!(stats.errors, 0, "fault-free sweep must not error");
    let span_ps = stats
        .done_at
        .since(SimTime::ZERO)
        .as_ps()
        .saturating_sub(start_ps)
        .max(1);
    let engines = cfg.engines() as f64;
    CurvePoint {
        rate_per_engine: rate,
        offered_kops: rate * engines / 1e3,
        issued: stats.issued,
        shed: stats.shed,
        ok: stats.ok,
        errors: stats.errors,
        span_ps,
        achieved_kops: stats.ok as f64 / (span_ps as f64 / 1e12) / 1e3,
        p50_ps: stats.latency.percentile(0.50),
        p95_ps: stats.latency.percentile(0.95),
        p99_ps: stats.latency.percentile(0.99),
        p999_ps: stats.latency.percentile(0.999),
        mean_ps: stats.latency.mean(),
        hist_digest: stats.latency.digest(),
    }
}

/// Run the failover cell: the sweep's load with a scripted daemon
/// crash killing `crash_node` mid-run, against a fault-free baseline
/// of the same load for the gap measurement.
///
/// # Panics
///
/// Panics when no promotion happened, when the faulted run shows no
/// client-observed stall beyond the baseline, or when any acknowledged
/// write is missing from the authoritative stores (the zero-lost-acks
/// contract).
pub fn run_failover(cfg: &SweepConfig) -> FailoverOutcome {
    let mut plan = LoadPlan::new(cfg.seed, cfg.failover_requests, cfg.failover_rate);
    plan.start = cfg.warmup;
    let (baseline, _) = drive(&cfg.topology, cfg.engines(), |_| {}, &plan, None);
    assert_eq!(baseline.errors, 0, "fault-free baseline must not error");
    let faults = FaultPlan::scripted(vec![FaultEvent {
        at: SimTime::ZERO + cfg.crash_at,
        kind: FaultKind::DaemonCrash {
            node: cfg.crash_node,
            downtime: cfg.downtime,
        },
    }]);
    let (stats, cluster) = drive(&cfg.topology, cfg.engines(), |_| {}, &plan, Some(&faults));

    let promotions = cluster.promotions();
    assert!(
        !promotions.is_empty(),
        "killing a primary's node must promote at least one shard"
    );
    let lost = cluster.lost_acks(&stats.acked);
    assert_eq!(lost, 0, "acknowledged writes were lost across failover");
    // The measured failover gap: the retry layer usually rides the
    // promotion out without surfacing an error, so the client-visible
    // cost shows up as the worst request stall in excess of the
    // fault-free baseline (the request that spanned the outage ate the
    // crash detection, the promotion, and the re-bind).
    let baseline_max_ps = baseline.latency.max();
    let max_ps = stats.latency.max();
    let gap_ps = max_ps.saturating_sub(baseline_max_ps);
    assert!(
        gap_ps > 0,
        "the crash must cost some client a visible stall \
         (faulted max {max_ps} ps vs baseline {baseline_max_ps} ps)"
    );
    FailoverOutcome {
        ok: stats.ok,
        errors: stats.errors,
        acked_writes: stats.acked.len() as u64,
        lost_acks: lost,
        promotions: promotions.len(),
        promotion_log: cluster.promotion_log(),
        outages: stats.outages.len(),
        baseline_max_ps,
        max_ps,
        gap_ps,
        state_digest: cluster.state_digest(),
        hist_digest: stats.latency.digest(),
    }
}

/// The full run: every curve point plus the failover cell.
pub fn run_sweep(cfg: &SweepConfig) -> (Vec<CurvePoint>, FailoverOutcome) {
    let curve: Vec<CurvePoint> = cfg.rates.iter().map(|&r| run_point(cfg, r)).collect();
    let failover = run_failover(cfg);
    (curve, failover)
}

/// Replay-stable digest over the curve's virtual quantities.
pub fn curve_digest(curve: &[CurvePoint]) -> u64 {
    let mut h = Fnv1a::new();
    for p in curve {
        h.write_u64(p.rate_per_engine.to_bits());
        for v in [p.issued, p.shed, p.ok, p.errors, p.span_ps, p.hist_digest] {
            h.write_u64(v);
        }
    }
    h.finish()
}

/// Replay-stable digest over the failover cell.
pub fn failover_digest(f: &FailoverOutcome) -> u64 {
    let mut h = Fnv1a::new();
    for v in [
        f.ok,
        f.errors,
        f.acked_writes,
        f.lost_acks,
        f.promotions as u64,
        f.outages as u64,
        f.baseline_max_ps,
        f.max_ps,
        f.gap_ps,
        f.state_digest,
        f.hist_digest,
    ] {
        h.write_u64(v);
    }
    h.write(f.promotion_log.as_bytes());
    h.finish()
}

fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Render the committed `results/svc_curve.txt` (byte-identical across
/// replays).
pub fn render_curve(cfg: &SweepConfig, curve: &[CurvePoint], failover: &FailoverOutcome) -> String {
    let (width, height) = cfg.dims();
    let mut out = format!(
        "svc serving curve mesh={}x{} engines={} requests/engine={} seed={}\n\
         {:>12} {:>10} {:>8} {:>6} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
        width,
        height,
        cfg.engines(),
        cfg.requests,
        cfg.seed,
        "offered_kops",
        "achieved",
        "issued",
        "shed",
        "p50_us",
        "p95_us",
        "p99_us",
        "p999_us",
        "mean_us",
    );
    for p in curve {
        out.push_str(&format!(
            "{:>12.1} {:>10.1} {:>8} {:>6} {:>10.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}\n",
            p.offered_kops,
            p.achieved_kops,
            p.issued,
            p.shed,
            us(p.p50_ps),
            us(p.p95_ps),
            us(p.p99_ps),
            us(p.p999_ps),
            us(p.mean_ps),
        ));
    }
    out.push_str(&format!(
        "failover crash_node={} at_us={:.0} downtime_us={:.0}: ok={} errors={} \
         acked_writes={} lost_acks={} promotions={} max_stall_us={:.2} \
         baseline_max_us={:.2} gap_us={:.2}\n",
        cfg.crash_node,
        us(cfg.crash_at.as_ps()),
        us(cfg.downtime.as_ps()),
        failover.ok,
        failover.errors,
        failover.acked_writes,
        failover.lost_acks,
        failover.promotions,
        us(failover.max_ps),
        us(failover.baseline_max_ps),
        us(failover.gap_ps),
    ));
    for line in failover.promotion_log.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Render the committed `BENCH_svc.json`, closed by `digests`.
fn render_json(
    cfg: &SweepConfig,
    curve: &[CurvePoint],
    failover: &FailoverOutcome,
    digests: &[(&str, u64)],
) -> String {
    let (width, height) = cfg.dims();
    let mut json = Json::new(
        &[
            "Throughput-vs-offered-load and failover measurement for the",
            "shrimp-svc sharded replicated KV service, generated by",
            "`cargo run --release -p shrimp-bench --bin artifacts -- svc",
            "--write`. All quantities are virtual-time and deterministic:",
            "regenerating on any host must reproduce this file",
            "byte-identically. CI's svc-smoke job re-runs the sweep and",
            "compares the digests.",
        ],
        &format!(
            "\"mesh\": \"{}x{}\", \"engines\": {}, \"requests_per_engine\": {}, \"seed\": {}",
            width,
            height,
            cfg.engines(),
            cfg.requests,
            cfg.seed
        ),
    );
    let rows: Vec<String> = curve
        .iter()
        .map(|p| {
            format!(
                "\"rate_per_engine\": {:.0}, \"offered_kops\": {:.1}, \"issued\": {}, \
                 \"shed\": {}, \"ok\": {}, \"errors\": {}, \"achieved_kops\": {:.1}, \
                 \"p50_us\": {:.2}, \"p95_us\": {:.2}, \"p99_us\": {:.2}, \"p999_us\": {:.2}, \
                 \"mean_us\": {:.2}, \"hist_digest\": \"{:016x}\"",
                p.rate_per_engine,
                p.offered_kops,
                p.issued,
                p.shed,
                p.ok,
                p.errors,
                p.achieved_kops,
                us(p.p50_ps),
                us(p.p95_ps),
                us(p.p99_ps),
                us(p.p999_ps),
                us(p.mean_ps),
                p.hist_digest,
            )
        })
        .collect();
    json.array("curve", &rows);
    json.object(
        "failover",
        &format!(
            "\"crash_node\": {}, \"crash_at_us\": {:.0}, \"downtime_us\": {:.0}, \
             \"ok\": {}, \"errors\": {}, \"acked_writes\": {}, \"lost_acks\": {}, \
             \"promotions\": {}, \"outages\": {}, \"max_stall_us\": {:.2}, \
             \"baseline_max_us\": {:.2}, \"gap_us\": {:.2}, \
             \"promotion_log\": \"{}\", \"state_digest\": \"{:016x}\"",
            cfg.crash_node,
            us(cfg.crash_at.as_ps()),
            us(cfg.downtime.as_ps()),
            failover.ok,
            failover.errors,
            failover.acked_writes,
            failover.lost_acks,
            failover.promotions,
            failover.outages,
            us(failover.max_ps),
            us(failover.baseline_max_ps),
            us(failover.gap_ps),
            failover.promotion_log.trim_end().replace('\n', "; "),
            failover.state_digest,
        ),
    );
    json.finish(digests)
}

/// The `svc` artifact: the 4×4 sweep (2×2 under `smoke`), gated on
/// `curve_digest` and `failover_digest`.
pub fn artifact(smoke: bool) -> Output {
    let cfg = if smoke {
        SweepConfig::smoke()
    } else {
        SweepConfig::paper_4x4()
    };
    let (curve, failover) = run_sweep(&cfg);
    let digests = vec![
        ("curve_digest", curve_digest(&curve)),
        ("failover_digest", failover_digest(&failover)),
    ];
    Output {
        text: render_curve(&cfg, &curve, &failover),
        json: (!smoke).then(|| render_json(&cfg, &curve, &failover, &digests)),
        digests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_curve_saturates_and_replays() {
        let cfg = SweepConfig::smoke();
        let under = run_point(&cfg, cfg.rates[0]);
        let over = run_point(&cfg, *cfg.rates.last().unwrap());
        assert_eq!(under.shed, 0, "under offered load nothing is shed");
        assert!(
            over.shed > 0,
            "past saturation admission control must shed ({} issued)",
            over.issued
        );
        assert!(
            over.p99_ps > under.p99_ps,
            "tail latency must climb past the knee"
        );
        assert!(
            over.achieved_kops < over.offered_kops / 2.0,
            "achieved throughput must fall well short of offered past saturation"
        );
        let replay = run_point(&cfg, cfg.rates[0]);
        assert_eq!(under.hist_digest, replay.hist_digest);
        assert_eq!(curve_digest(&[under]), curve_digest(&[replay]));
    }

    #[test]
    fn smoke_failover_loses_nothing() {
        let cfg = SweepConfig::smoke();
        let f = run_failover(&cfg);
        assert_eq!(f.lost_acks, 0);
        assert!(f.promotions >= 1);
        assert!(f.gap_ps > 0);
        assert!(f.promotion_log.contains("promote shard="));
    }
}
