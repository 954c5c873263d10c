//! `svc`: a 4×4 `shrimp-svc` cluster (16 shards, chained replication)
//! driven by 16 open-loop engines in virtual time: Poisson arrivals,
//! Zipf(0.99) over 512 keys, 30 % writes (a tenth of them deletes).
//! Two load points run one after the other on one long-lived system:
//! `steady` below the cluster's saturation plateau, then `overload` far
//! past it.
//!
//! Host cost here is the serving path svc → srpc → core → nic → mesh. The benchmark runs its own engines
//! (generator + worker per node, like `shrimp_svc::spawn_engine`) so
//! that it can record each request's due time, dequeue time and
//! completion exactly; percentiles are nearest-rank over all samples.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_sim::{Kernel, SimChannel, SimDur, SimTime};
use shrimp_svc::{Arrival, LoadPlan, Op, Request, SvcClient, SvcCluster, SvcConfig};

use crate::meter::Meter;
use crate::Fnv;

const WIDTH: usize = 4;
const HEIGHT: usize = 4;
/// Admission control: a worker's backlog at which reads are shed
/// (writes at three quarters of it).
const QUEUE_LIMIT: usize = 64;

/// One load point: when its first arrival may come, the offered rate
/// per engine, and requests per engine.
#[derive(Debug, Clone, Copy)]
struct LoadPoint {
    start: SimDur,
    rate_per_engine: f64,
    requests: u64,
}

/// 16 × 8 k/s = 128 kops offered, below the ~170–190 kops plateau.
/// Arrivals start after every engine has bound every shard (~16.3 ms on
/// 4×4), so the bind backlog never pollutes a percentile. 16 × 240
/// requests give ≥ 1,000 samples in each op class at 30 % writes.
const STEADY: LoadPoint = LoadPoint {
    start: SimDur::from_ps(20_000_000_000),
    rate_per_engine: 8_000.0,
    requests: 240,
};

/// 16 × 32 k/s = 512 kops offered, well past saturation: each worker's
/// backlog reaches the shedding limits within ~80 arrivals. It starts
/// once the steady point has drained (its arrivals end near 50 ms).
const OVERLOAD: LoadPoint = LoadPoint {
    start: SimDur::from_ps(60_000_000_000),
    rate_per_engine: 32_000.0,
    requests: 128,
};

const POINTS: [LoadPoint; 2] = [STEADY, OVERLOAD];

/// Generated inputs: every engine's arrivals, tagged with their load
/// point (0 = steady, 1 = overload).
pub struct Inputs {
    schedules: Vec<Arc<Vec<(usize, Arrival)>>>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let plans: Vec<LoadPlan> = POINTS
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut plan =
                    LoadPlan::new(seed.wrapping_add(i as u64), p.requests, p.rate_per_engine);
                plan.start = p.start;
                plan
            })
            .collect();
        let schedules = (0..(WIDTH * HEIGHT) as u64)
            .map(|e| {
                let mut all = Vec::new();
                for (i, plan) in plans.iter().enumerate() {
                    all.extend(plan.schedule(e).into_iter().map(|a| (i, a)));
                }
                Arc::new(all)
            })
            .collect();
        Inputs { schedules }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Get,
    Write,
}

/// One request's virtual timeline.
#[derive(Debug, Clone, Copy)]
struct Rec {
    point: usize,
    class: Class,
    due: SimTime,
    dequeued: SimTime,
    done: SimTime,
    ok: bool,
}

/// What one engine saw.
#[derive(Debug, Default)]
struct EngineLog {
    recs: Vec<Rec>,
    /// Acknowledged writes: `(shard, acked sequence, op)`.
    acked: Vec<(usize, u64, Op)>,
    /// Shed arrivals per load point: `[reads, writes]`.
    shed: [[u64; 2]; 2],
    /// Largest delay between a request's due time and its hand-off to
    /// the worker queue.
    gen_late: SimDur,
}

/// Nearest-rank percentiles over all samples, with the sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pct {
    pub p50_us: f64,
    pub p99_us: f64,
    pub n: usize,
}

impl Pct {
    fn of(mut ps: Vec<u64>) -> Pct {
        ps.sort_unstable();
        let at = |q: f64| {
            let rank = ((q * ps.len() as f64).ceil() as usize).max(1);
            ps.get(rank - 1).map_or(0.0, |&v| v as f64 / 1e6)
        };
        Pct {
            p50_us: at(0.50),
            p99_us: at(0.99),
            n: ps.len(),
        }
    }
}

/// Virtual results of one load point.
#[derive(Debug, Clone, Default)]
pub struct PointOutcome {
    /// Due time to completion.
    pub get: Pct,
    pub write: Pct,
    /// Due time to dequeue, all classes.
    pub queue_wait: Pct,
    /// Dequeue to completion, all classes.
    pub service: Pct,
    pub offered: u64,
    pub ok: u64,
    pub errors: u64,
    pub shed_reads: u64,
    pub shed_writes: u64,
    /// Completed requests per virtual second, thousands, from the
    /// point's first due time to its last completion.
    pub achieved_kops: f64,
    first_due: Option<SimTime>,
    last_done: SimTime,
}

impl PointOutcome {
    pub fn shed_frac(&self) -> f64 {
        (self.shed_reads + self.shed_writes) as f64 / self.offered.max(1) as f64
    }
}

pub struct Outcome {
    pub steady: PointOutcome,
    pub overload: PointOutcome,
    pub gen_late_us: f64,
    pub digest: u64,
}

/// Build the cluster a pass serves from.
fn setup(m: &mut Meter) -> (Kernel, Arc<ShrimpSystem>, Arc<SvcCluster>) {
    let kernel = Kernel::new();
    let system = m.build(&kernel, SystemConfig::with_mesh(WIDTH, HEIGHT));
    let nodes = system.len();
    let mut cfg = SvcConfig::chained(nodes);
    // One client binding per engine and shard, plus slack for re-binds.
    cfg.conns_per_shard = nodes + 4;
    let cluster = m.spawn_cluster(&system, cfg);
    (kernel, system, cluster)
}

/// Set up and tear down without serving: a set-up time sample.
pub fn setup_only(m: &mut Meter) {
    let parts = setup(m);
    m.teardown(parts);
}

pub fn pass(m: &mut Meter, inputs: &Inputs) -> Outcome {
    let (kernel, system, cluster) = setup(m);
    let logs: Vec<Arc<Mutex<EngineLog>>> = inputs
        .schedules
        .iter()
        .enumerate()
        .map(|(node, sched)| spawn_engine(&cluster, node, Arc::clone(sched)))
        .collect();
    m.run(&kernel, &system);

    let mut h = Fnv::default();
    let mut points = [PointOutcome::default(), PointOutcome::default()];
    // Per point: get, write, queue-wait and service samples, picoseconds.
    let mut samples: [[Vec<u64>; 4]; 2] = Default::default();
    let mut gen_late = SimDur::ZERO;
    let (mut acked, mut lost) = (0u64, 0u64);
    for (sched, log) in inputs.schedules.iter().zip(&logs) {
        let log = log.lock();
        for &(p, _) in sched.iter() {
            points[p].offered += 1;
        }
        for (p, [reads, writes]) in log.shed.iter().enumerate() {
            points[p].shed_reads += reads;
            points[p].shed_writes += writes;
            h.u64(*reads);
            h.u64(*writes);
        }
        gen_late = gen_late.max(log.gen_late);
        for r in &log.recs {
            for v in [
                r.point as u64,
                r.class as u64,
                r.due.as_ps(),
                r.dequeued.as_ps(),
                r.done.as_ps(),
                r.ok as u64,
            ] {
                h.u64(v);
            }
            let pt = &mut points[r.point];
            pt.first_due = Some(pt.first_due.map_or(r.due, |f| f.min(r.due)));
            if !r.ok {
                pt.errors += 1;
                continue;
            }
            pt.ok += 1;
            pt.last_done = pt.last_done.max(r.done);
            let s = &mut samples[r.point];
            s[r.class as usize].push(r.done.since(r.due).as_ps());
            s[2].push(r.dequeued.since(r.due).as_ps());
            s[3].push(r.done.since(r.dequeued).as_ps());
        }
        // Every acknowledged write survives in the authoritative store
        // (a later write to the same key may have superseded it).
        for (shard, seq, op) in &log.acked {
            let store = cluster.authoritative_store(*shard);
            let store = store.lock();
            let (eseq, val) = store.get(op.key());
            let held = eseq > *seq
                || (eseq == *seq
                    && match op {
                        Op::Put { val: v, .. } => val == Some(v.as_slice()),
                        Op::Del { .. } => val.is_none(),
                    });
            acked += 1;
            lost += !held as u64;
        }
    }
    h.u64(cluster.state_digest());
    m.teardown((kernel, cluster, system));

    for (pt, [get, write, wait, service]) in points.iter_mut().zip(samples) {
        pt.get = Pct::of(get);
        pt.write = Pct::of(write);
        pt.queue_wait = Pct::of(wait);
        pt.service = Pct::of(service);
        let span = pt.last_done.since(pt.first_due.unwrap_or(pt.last_done));
        pt.achieved_kops = pt.ok as f64 / (span.as_us() / 1e6).max(1e-12) / 1e3;
        m.checks.ops(pt.ok + pt.errors, pt.errors);
    }
    let [steady, overload] = points;
    m.checks.ops(acked, lost);
    if lost > 0 {
        eprintln!("check failed: svc lost {lost} of {acked} acknowledged writes");
    }
    m.checks.check(steady.errors == 0, || {
        format!("svc steady: {} requests failed", steady.errors)
    });
    m.checks
        .check(steady.get.n >= 1000 && steady.write.n >= 1000, || {
            format!(
                "svc steady: {} gets and {} writes, fewer than 1000",
                steady.get.n, steady.write.n
            )
        });
    m.checks.check(
        overload.first_due.is_none_or(|f| steady.last_done < f),
        || "svc: the steady point had not drained when the overload point began".to_string(),
    );
    m.checks.check(gen_late.is_zero(), || {
        format!("svc: the load generator ran {gen_late} late")
    });
    Outcome {
        steady,
        overload,
        gen_late_us: gen_late.as_us(),
        digest: h.finish(),
    }
}

/// A generator and a worker on `node`, like `shrimp_svc::spawn_engine`
/// but logging every request's due, dequeue and completion instants.
fn spawn_engine(
    cluster: &Arc<SvcCluster>,
    node: usize,
    schedule: Arc<Vec<(usize, Arrival)>>,
) -> Arc<Mutex<EngineLog>> {
    cluster.register_clients(1);
    let log = Arc::new(Mutex::new(EngineLog::default()));
    let queue: SimChannel<Option<(usize, Arrival)>> = SimChannel::new();
    let h = cluster.system().sim().clone();
    {
        let (queue, log) = (queue.clone(), Arc::clone(&log));
        h.spawn(format!("gen{node}"), move |ctx| {
            for (point, arrival) in schedule.iter() {
                if arrival.at > ctx.now() {
                    ctx.advance(arrival.at.since(ctx.now()));
                }
                let mut log = log.lock();
                log.gen_late = log.gen_late.max(ctx.now().since(arrival.at));
                // Tiered admission: writes are shed at three quarters of
                // the limit, reads only at the full limit.
                let backlog = queue.len();
                match arrival.req {
                    Request::Get { .. } if backlog >= QUEUE_LIMIT => log.shed[*point][0] += 1,
                    Request::Write { .. } if backlog >= QUEUE_LIMIT * 3 / 4 => {
                        log.shed[*point][1] += 1
                    }
                    _ => {
                        drop(log);
                        queue.send(&ctx.handle(), Some((*point, arrival.clone())));
                    }
                }
            }
            queue.send(&ctx.handle(), None);
        });
    }
    {
        let (cluster, log) = (Arc::clone(cluster), Arc::clone(&log));
        h.spawn(format!("wrk{node}"), move |ctx| {
            let mut cli = SvcClient::new(&cluster, node, format!("eng{node}"));
            // Bind every shard before the first arrival.
            let mut warmed = vec![false; cluster.config().shards];
            let mut probe = 0u64;
            while warmed.iter().any(|w| !w) && probe < 10_000 {
                let key = format!("warm{probe:08}").into_bytes();
                probe += 1;
                let shard = cli.shard_of(&key);
                if !warmed[shard] {
                    let _ = cli.get(ctx, &key);
                    warmed[shard] = true;
                }
            }
            while let Some((point, arrival)) = queue.recv(ctx) {
                let dequeued = ctx.now();
                let (class, ok) = match &arrival.req {
                    Request::Get { key } => (Class::Get, cli.get(ctx, key).is_ok()),
                    Request::Write { op } => {
                        let r = cli.apply(ctx, op);
                        if let Ok(a) = &r {
                            let shard = cli.shard_of(op.key());
                            log.lock().acked.push((shard, a.seq, op.clone()));
                        }
                        (Class::Write, r.is_ok())
                    }
                    Request::Scan { .. } => unreachable!("the plan draws no scans"),
                };
                log.lock().recs.push(Rec {
                    point,
                    class,
                    due: arrival.at,
                    dequeued,
                    done: ctx.now(),
                    ok,
                });
            }
            cluster.client_done();
        });
    }
    log
}
