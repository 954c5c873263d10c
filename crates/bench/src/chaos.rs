//! The chaos harness: the paper's workloads rerun under fault injection.
//!
//! Each cell of the matrix builds a fresh prototype system, arms one
//! [`FaultPlan`], and drives one of the evaluation workloads through it:
//!
//! * **vmmc** — the Figure 3 deliberate-update ping-pong, with every
//!   round's payload stamped so reordering or corruption is caught.
//! * **nx** — the Figure 4 NX ping-pong over [`NxWorld::try_join`].
//! * **coll** — barrier + verified allreduce rounds over the
//!   `shrimp-coll` persistent channel geometry, joined through its
//!   fallible [`CollWorld::try_join`] path.
//! * **socket** — the Figure 7 stream-socket echo.
//! * **svc** — the sharded replicated KV service: single-writer
//!   put/get rounds with a read-your-write check, riding out outages
//!   through the client's timeout-driven re-routing.
//! * **rmc** — disaggregated-memory paging: an LRU [`RemotePager`] on
//!   node 0 over a [`MemoryServer`] pool on node 1, every read checked
//!   against a local reference model, so a stalled, reordered, or
//!   dropped fetch reply (or a lost write-back) is caught as
//!   corruption.
//!
//! The harness asserts the recovery contract, not performance: no
//! corruption, per-pair ordering, completion within a bounded delay
//! budget, a clean (quiescent) shutdown, and — because both the kernel
//! and the fault engine are deterministic — bit-identical reports for
//! identical seeds. Injected IPT violations must traverse the paper's
//! freeze-and-interrupt path and come back repaired.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_coll::{CollConfig, CollError, CollWorld};
use shrimp_core::{BufferName, ExportOpts, ShrimpSystem, SystemConfig, VmmcError};
use shrimp_mesh::{Mesh2D, NodeId, TopologyRef};
use shrimp_node::{CacheMode, PAGE_SIZE};
use shrimp_nx::{NxConfig, NxError, NxWorld};
use shrimp_rmc::{MemoryServer, RemotePager};
use shrimp_sim::{
    Ctx, FaultEvent, FaultKind, FaultPlan, FaultSpec, Kernel, RetryPolicy, SimDur, SimTime,
};
use shrimp_sockets::{connect, listen, SocketError, SocketVariant};
use shrimp_svc::{RetryClass, SvcClient, SvcCluster, SvcConfig, SvcError};

/// Which evaluation workload a cell drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3: raw VMMC deliberate-update ping-pong.
    Vmmc,
    /// Figure 4: NX library ping-pong.
    Nx,
    /// Collective rounds (barrier + verified allreduce) on shrimp-coll.
    Coll,
    /// Figure 7: stream-socket echo.
    Socket,
    /// Sharded replicated KV service (shrimp-svc) put/get rounds.
    Svc,
    /// Disaggregated-memory paging (shrimp-rmc) over one-sided fetch.
    Rmc,
}

impl Workload {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Vmmc => "vmmc",
            Workload::Nx => "nx",
            Workload::Coll => "coll",
            Workload::Socket => "socket",
            Workload::Svc => "svc",
            Workload::Rmc => "rmc",
        }
    }

    /// All six, in report order.
    pub fn all() -> [Workload; 6] {
        [
            Workload::Vmmc,
            Workload::Nx,
            Workload::Coll,
            Workload::Socket,
            Workload::Svc,
            Workload::Rmc,
        ]
    }
}

/// Round count per workload — enough traffic that mid-run faults land
/// between transfers, small enough for the full matrix to stay quick.
const ROUNDS: u32 = 10;
const POLL_BUDGET: usize = 10_000;

/// One cell's measured outcome. Every field derives from virtual time
/// and the deterministic fault log, so rendering it is replay-stable.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Workload label.
    pub workload: &'static str,
    /// Matrix row name (e.g. `light-7`).
    pub plan_name: String,
    /// Number of fault events the plan injected.
    pub events: usize,
    /// Virtual time at which the driving process finished, in
    /// picoseconds (integer, so reports compare byte-for-byte).
    pub finished_ps: u64,
    /// Protection violations the freeze path observed.
    pub violations: usize,
    /// The system's fault log, rendered.
    pub log: String,
}

impl CellOutcome {
    /// Deterministic one-cell rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cell workload={} plan={} events={} finished_ps={} violations={}\n",
            self.workload, self.plan_name, self.events, self.finished_ps, self.violations
        );
        out.push_str(&self.log);
        out
    }
}

/// Upper bound on the extra virtual time a plan may cost a workload:
/// the sum of every fault's worst-case delay contribution plus the
/// retry budgets the libraries may burn riding out daemon outages.
pub fn delay_budget(plan: &FaultPlan) -> SimDur {
    let boot = RetryPolicy::bootstrap();
    plan.events.iter().fold(SimDur::ZERO, |acc, ev| {
        acc + match &ev.kind {
            FaultKind::LinkStall { dur, .. } => *dur,
            FaultKind::PortStall { dur, .. } => *dur,
            // Work inside a brownout dilates by at most `factor`.
            FaultKind::Brownout { factor, dur } => {
                SimDur::from_ps((dur.as_ps() as f64 * (factor - 1.0).max(0.0)) as u64 + 1)
            }
            FaultKind::DmaStall { dur, .. } => *dur,
            // Freeze, interrupt, repair, retry of the frozen packet —
            // plus, for one-sided traffic, the backoffs a requester
            // burns on fetches the frozen node denies until the OS
            // repair re-enables the page (the deny is immediate but the
            // retry loop's exponential backoff is not).
            FaultKind::IptViolation { .. } => {
                SimDur::from_us(100.0) + boot.timeout(0) + boot.timeout(1)
            }
            // The outage itself plus every bounded wait a retry loop
            // may spend discovering the daemon is back, plus the
            // re-replication sync the watchdog runs afterwards (freeze
            // window, snapshot stream, epoch re-bind churn).
            FaultKind::DaemonCrash { downtime, .. } => {
                *downtime + boot.total_budget() + SimDur::from_us(500.0)
            }
            // The engine holds requests and replies for the stall
            // window; requesters park until completion (no drops, no
            // retries), so the extra cost is the window plus the drain
            // of whatever queued behind it.
            FaultKind::FetchStall { dur, .. } => *dur + SimDur::from_us(100.0),
            // A scripted directive (e.g. a live shard migration):
            // freeze window + delta drain + every client re-binding
            // under the bumped epoch.
            FaultKind::Directive { .. } => SimDur::from_us(1_000.0),
        }
    })
}

/// Run one cell: fresh prototype system, one plan, one workload.
///
/// # Panics
///
/// Panics on any contract breach: corrupted or reordered payloads, a
/// failed shutdown, or an endpoint error the retry policies should have
/// absorbed.
pub fn run_cell(workload: Workload, plan_name: &str, plan: &FaultPlan) -> CellOutcome {
    run_cell_events(workload, plan_name, plan).0
}

/// [`run_cell`] on an arbitrary (in-order) fabric: the workloads derive
/// their endpoints from the topology's own node enumeration, so the
/// same recovery matrix runs unchanged on a torus or a fat-tree.
///
/// # Panics
///
/// As [`run_cell`].
pub fn run_cell_on(
    topo: TopologyRef,
    workload: Workload,
    plan_name: &str,
    plan: &FaultPlan,
) -> CellOutcome {
    run_cell_events_on(topo, workload, plan_name, plan).0
}

/// [`run_cell`], also returning the raw timestamped fault-log entries
/// (for overlaying on an observability trace).
///
/// # Panics
///
/// As [`run_cell`].
pub fn run_cell_events(
    workload: Workload,
    plan_name: &str,
    plan: &FaultPlan,
) -> (CellOutcome, Vec<(SimTime, String)>) {
    run_cell_events_on(
        Arc::new(Mesh2D::shrimp_prototype()),
        workload,
        plan_name,
        plan,
    )
}

/// [`run_cell_events`] on an arbitrary (in-order) fabric.
///
/// # Panics
///
/// As [`run_cell`].
pub fn run_cell_events_on(
    topo: TopologyRef,
    workload: Workload,
    plan_name: &str,
    plan: &FaultPlan,
) -> (CellOutcome, Vec<(SimTime, String)>) {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_topology(topo));
    let log = system.apply_faults(plan);
    let finished: Arc<Mutex<Option<SimTime>>> = Arc::new(Mutex::new(None));

    match workload {
        Workload::Vmmc => vmmc_workload(&kernel, &system, &finished),
        Workload::Nx => nx_workload(&kernel, &system, &finished),
        Workload::Coll => coll_workload(&kernel, &system, &finished),
        Workload::Socket => socket_workload(&kernel, &system, &finished),
        Workload::Svc => svc_workload(&kernel, &system, &finished),
        Workload::Rmc => rmc_workload(&kernel, &system, &finished),
    }

    kernel
        .run_until_quiescent()
        .expect("chaos cell must shut down cleanly");
    assert!(system.quiescent(), "all injected traffic must drain");
    let finished = finished.lock().expect("driver process never finished");
    let outcome = CellOutcome {
        workload: workload.label(),
        plan_name: plan_name.to_string(),
        events: plan.events.len(),
        finished_ps: (finished - SimTime::ZERO).as_ps(),
        violations: system.violations().len(),
        log: log.render(),
    };
    (outcome, log.snapshot())
}

/// The two traffic-carrying endpoints of a pairwise cell, taken from
/// the fabric's own node enumeration (its first two compute nodes)
/// rather than from assumed grid numbering — the same workloads run
/// unchanged on any topology the cell is built over.
fn traffic_pair(system: &ShrimpSystem) -> (usize, usize) {
    let mut nodes = system.topology().nodes();
    let a = nodes.next().expect("fabric has at least one node").0;
    let b = nodes.next().expect("chaos workloads need >= 2 nodes").0;
    (a, b)
}

/// Figure 3 workload: deliberate-update ping-pong, one page per message.
/// Round `r`'s payload is `r`-stamped and the flag word is the round's
/// sequence number, so any reorder or corruption trips an assert.
fn vmmc_workload(
    kernel: &Kernel,
    system: &Arc<ShrimpSystem>,
    finished: &Arc<Mutex<Option<SimTime>>>,
) {
    let n = PAGE_SIZE;
    let (node_a, node_b) = traffic_pair(system);
    let ping_names: shrimp_sim::SimChannel<BufferName> = shrimp_sim::SimChannel::new();
    let pong_names: shrimp_sim::SimChannel<BufferName> = shrimp_sim::SimChannel::new();
    let policy = RetryPolicy::bootstrap();
    {
        let ping = system.endpoint(node_a, "chaos-ping");
        let (ping_names, pong_names) = (ping_names.clone(), pong_names.clone());
        let finished = Arc::clone(finished);
        kernel.spawn("chaos-ping", move |ctx| {
            let recv = ping.proc_().alloc(n, CacheMode::WriteBack);
            let user = ping.proc_().alloc(n, CacheMode::WriteBack);
            // A daemon crash may land mid-setup; export rides it out.
            let name = ping
                .export_retry(ctx, recv, n, ExportOpts::default(), policy)
                .unwrap_or_else(|e| panic!("chaos export failed: {e}"));
            ping_names.send(&ctx.handle(), name);
            let peer_name = pong_names.recv(ctx);
            let peer = ping
                .import_retry(ctx, NodeId(node_b), peer_name, policy)
                .unwrap();
            for r in 0..ROUNDS {
                let seq = r * 2 + 1;
                let fill = vec![seq as u8; n - 4];
                ping.proc_().poke(user, &fill).unwrap();
                ping.proc_().write_u32(ctx, user.add(n - 4), seq).unwrap();
                ping.send(ctx, user, &peer, 0, n).unwrap();
                ping.wait_u32(ctx, recv.add(n - 4), POLL_BUDGET, move |v| v == seq + 1)
                    .unwrap();
                let echo = ping.proc_().peek(recv, n - 4).unwrap();
                assert!(
                    echo.iter().all(|&b| b == (seq + 1) as u8),
                    "round {r}: echo payload corrupted or out of order"
                );
            }
            *finished.lock() = Some(ctx.now());
        });
    }
    {
        let pong = system.endpoint(node_b, "chaos-pong");
        kernel.spawn("chaos-pong", move |ctx| {
            let recv = pong.proc_().alloc(n, CacheMode::WriteBack);
            let user = pong.proc_().alloc(n, CacheMode::WriteBack);
            // A daemon crash may land mid-setup; export rides it out.
            let name = pong
                .export_retry(ctx, recv, n, ExportOpts::default(), policy)
                .unwrap_or_else(|e| panic!("chaos export failed: {e}"));
            pong_names.send(&ctx.handle(), name);
            let peer_name = ping_names.recv(ctx);
            let peer = pong
                .import_retry(ctx, NodeId(node_a), peer_name, policy)
                .unwrap();
            for r in 0..ROUNDS {
                let seq = r * 2 + 1;
                pong.wait_u32(ctx, recv.add(n - 4), POLL_BUDGET, move |v| v == seq)
                    .unwrap();
                let got = pong.proc_().peek(recv, n - 4).unwrap();
                assert!(
                    got.iter().all(|&b| b == seq as u8),
                    "round {r}: payload corrupted or out of order"
                );
                let fill = vec![(seq + 1) as u8; n - 4];
                pong.proc_().poke(user, &fill).unwrap();
                pong.proc_()
                    .write_u32(ctx, user.add(n - 4), seq + 1)
                    .unwrap();
                pong.send(ctx, user, &peer, 0, n).unwrap();
            }
        });
    }
}

/// Figure 4 workload: NX ping-pong through the fallible join path.
fn nx_workload(
    kernel: &Kernel,
    system: &Arc<ShrimpSystem>,
    finished: &Arc<Mutex<Option<SimTime>>>,
) {
    // One packet buffer per pair: every send lands on data-region page
    // 0, so an injected IPT violation is guaranteed to meet traffic and
    // traverse the freeze path (and flow control is maximally stressed).
    let mut cfg = NxConfig::paper_default();
    cfg.packet_buffers = 1;
    let (node_a, node_b) = traffic_pair(system);
    let world = NxWorld::new(Arc::clone(system), cfg, vec![node_a, node_b]);
    let size = 1024usize;
    for rank in 0..2usize {
        let world = Arc::clone(&world);
        let finished = Arc::clone(finished);
        kernel.spawn(format!("chaos-rank{rank}"), move |ctx| {
            // A daemon crash during the export phase surfaces as a typed
            // error before the rendezvous; back off and rejoin.
            let mut nx = loop {
                match world.try_join(ctx, rank, RetryPolicy::bootstrap()) {
                    Ok(p) => break p,
                    Err(NxError::Vmmc(VmmcError::DaemonUnavailable { .. })) => {
                        ctx.advance(SimDur::from_us(5_000.0));
                    }
                    Err(e) => panic!("chaos NX join failed: {e}"),
                }
            };
            let sbuf = nx.vmmc().proc_().alloc(size, CacheMode::WriteBack);
            let rbuf = nx.vmmc().proc_().alloc(size, CacheMode::WriteBack);
            for r in 0..ROUNDS {
                let stamp = (r as u8).wrapping_mul(7).wrapping_add(rank as u8);
                let peer_stamp = (r as u8).wrapping_mul(7).wrapping_add(1 - rank as u8);
                nx.vmmc().proc_().poke(sbuf, &vec![stamp; size]).unwrap();
                if rank == 0 {
                    nx.csend(ctx, r as i32 + 1, sbuf, size, 1).unwrap();
                    nx.crecv(ctx, r as i32 + 1, rbuf, size).unwrap();
                } else {
                    nx.crecv(ctx, r as i32 + 1, rbuf, size).unwrap();
                    nx.csend(ctx, r as i32 + 1, sbuf, size, 0).unwrap();
                }
                let got = nx.vmmc().proc_().peek(rbuf, size).unwrap();
                assert!(
                    got.iter().all(|&b| b == peer_stamp),
                    "rank {rank} round {r}: NX payload corrupted or out of order"
                );
            }
            nx.flush(ctx).unwrap();
            if rank == 0 {
                *finished.lock() = Some(ctx.now());
            }
        });
    }
}

/// Collective workload: ROUNDS of barrier + allreduce over the
/// persistent shrimp-coll channel geometry between nodes 0 and 1.
/// Setup rides out daemon outages through [`CollWorld::try_join`]'s
/// retrying export/import path; every round's sums are checked, so any
/// corruption, reorder, or lost flag under brownouts, link stalls, or
/// IPT freezes trips an assert.
fn coll_workload(
    kernel: &Kernel,
    system: &Arc<ShrimpSystem>,
    finished: &Arc<Mutex<Option<SimTime>>>,
) {
    let (node_a, node_b) = traffic_pair(system);
    let world = CollWorld::new(
        Arc::clone(system),
        CollConfig::default(),
        vec![node_a, node_b],
    );
    let n = 2usize;
    for rank in 0..n {
        let world = Arc::clone(&world);
        let finished = Arc::clone(finished);
        kernel.spawn(format!("chaos-coll{rank}"), move |ctx| {
            // A daemon crash landing inside the export/import phases
            // surfaces typed before the rendezvous; back off and rejoin.
            let mut comm = loop {
                match world.try_join(ctx, rank, RetryPolicy::bootstrap(), None) {
                    Ok(c) => break c,
                    Err(CollError::Vmmc(VmmcError::DaemonUnavailable { .. })) => {
                        ctx.advance(SimDur::from_us(5_000.0));
                    }
                    Err(e) => panic!("chaos coll join failed: {e}"),
                }
            };
            // Enough rounds, at a full chunk per reduction, that the
            // traffic spans every plan's fault horizon (the scripted
            // IPT shot lands at 900 us; generated plans run to 4 ms).
            let lanes = 256usize;
            for r in 0..ROUNDS * 3 {
                comm.barrier(ctx).unwrap();
                let mine: Vec<f64> = (0..lanes)
                    .map(|j| ((j + rank + 1) % 97) as f64 + r as f64)
                    .collect();
                let sums = comm.allreduce_f64(ctx, &mine).unwrap();
                for (j, &got) in sums.iter().enumerate() {
                    let want = ((j + 1) % 97) as f64 + ((j + 2) % 97) as f64 + 2.0 * r as f64;
                    assert_eq!(
                        got, want,
                        "rank {rank} round {r} lane {j}: allreduce sum corrupted"
                    );
                }
            }
            comm.barrier(ctx).unwrap();
            if rank == 0 {
                *finished.lock() = Some(ctx.now());
            }
        });
    }
}

/// Figure 7 workload: stream-socket echo; the byte stream itself is the
/// ordering check.
fn socket_workload(
    kernel: &Kernel,
    system: &Arc<ShrimpSystem>,
    finished: &Arc<Mutex<Option<SimTime>>>,
) {
    let size = 1536usize;
    let (node_a, node_b) = traffic_pair(system);
    {
        let vmmc = system.endpoint(node_b, "chaos-server");
        let eth = Arc::clone(system.ethernet());
        kernel.spawn("chaos-server", move |ctx| {
            let listener = listen(vmmc, eth, 7700);
            // A crash landing inside accept's export/import surfaces
            // typed; the client's connect retries resend the request.
            let mut sock = loop {
                match listener.accept(ctx) {
                    Ok(s) => break s,
                    Err(SocketError::Vmmc(VmmcError::DaemonUnavailable { .. })) => {
                        ctx.advance(SimDur::from_us(5_000.0));
                    }
                    Err(e) => panic!("chaos accept failed: {e}"),
                }
            };
            for _ in 0..ROUNDS {
                let msg = sock.recv_exact(ctx, size).unwrap();
                sock.send(ctx, &msg).unwrap();
            }
        });
    }
    {
        let vmmc = system.endpoint(node_a, "chaos-client");
        let eth = Arc::clone(system.ethernet());
        let finished = Arc::clone(finished);
        kernel.spawn("chaos-client", move |ctx| {
            let mut sock = connect(
                vmmc,
                ctx,
                &eth,
                NodeId(node_b),
                7700,
                SocketVariant::Du1Copy,
            )
            .unwrap();
            for r in 0..ROUNDS {
                let msg: Vec<u8> = (0..size).map(|i| (i as u8).wrapping_add(r as u8)).collect();
                sock.send(ctx, &msg).unwrap();
                let echo = sock.recv_exact(ctx, size).unwrap();
                assert_eq!(
                    echo, msg,
                    "round {r}: socket stream corrupted or out of order"
                );
            }
            sock.close(ctx).unwrap();
            *finished.lock() = Some(ctx.now());
        });
    }
}

/// KV-service workload: every client is the single writer of its own
/// key set, so after a put returns `Ok` (the commit ack) a subsequent
/// get must return exactly that value — across brownouts, daemon
/// restarts, and promotions. A visible failure (retry budget
/// exhausted mid-outage) is legal; a wrong or lost read is not.
fn svc_workload(
    kernel: &Kernel,
    system: &Arc<ShrimpSystem>,
    finished: &Arc<Mutex<Option<SimTime>>>,
) {
    let mut cfg = SvcConfig::chained(system.len());
    // Hedged reads on: a read stalling on a faulted primary re-issues
    // against the backup replica, so the read-your-write checks below
    // also audit replica-read safety under every plan.
    cfg.hedge_reads = true;
    let cluster = SvcCluster::spawn(system, cfg);
    let n_clients = 2usize;
    cluster.register_clients(n_clients);
    // Clients spread over the fabric's enumerated nodes (on the 2x2
    // prototype: nodes 0 and 2) — one shares a node with a faulted
    // daemon, one observes the outages purely over the wire.
    let all: Vec<usize> = system.topology().nodes().map(|n| n.0).collect();
    for c in 0..n_clients {
        let cluster = Arc::clone(&cluster);
        let finished = Arc::clone(finished);
        let home = all[(c * all.len()) / n_clients];
        kernel.spawn(format!("chaos-svc{c}"), move |ctx| {
            let mut cli = SvcClient::new(&cluster, home, format!("chaos{c}"));
            // One key per shard, probe-selected against the ring so
            // every primary (and so every replication channel) carries
            // traffic — an injected fault can't land on an idle shard.
            let keys: Vec<Vec<u8>> = (0..cluster.config().shards)
                .map(|s| {
                    (0..10_000u32)
                        .map(|i| format!("chaos-c{c}-s{s}-{i}").into_bytes())
                        .find(|k| cli.shard_of(k) == s)
                        .expect("probing finds a key for every shard")
                })
                .collect();
            for r in 0..ROUNDS * 3 {
                for (k, key) in keys.iter().enumerate() {
                    let stamp = (r as u8).wrapping_mul(13).wrapping_add((c * 4 + k) as u8);
                    let val = vec![stamp; 32];
                    ride_out(ctx, || cli.put(ctx, key, &val).map(|_| ()));
                    let got = ride_out(ctx, || cli.get(ctx, key));
                    match got.1 {
                        Some(v) => assert_eq!(
                            v, val,
                            "client {c} round {r} key {k}: read-your-write violated"
                        ),
                        None => panic!("client {c} round {r} key {k}: acked write lost"),
                    }
                }
            }
            cluster.client_done();
            // Whole-run completion: the cell is done when the LAST
            // client is. Measuring a single client would not be
            // monotone under faults — backing one client off
            // de-contends the shared replication channels and can
            // finish the *other* client marginally earlier.
            let mut f = finished.lock();
            let now = ctx.now();
            *f = Some(f.map_or(now, |prev| prev.max(now)));
        });
    }
}

/// Disaggregated-memory workload: an LRU pager on node 0 over a
/// memory-server pool on node 1, driven by a deterministic mixed
/// read/write pattern. A local reference model shadows every write;
/// every read (and a full read-back sweep at the end, which forces
/// most pages through fresh remote fetches) is checked against it, so
/// a stalled, reordered, or dropped fetch reply — or a write-back the
/// server lost — surfaces as corruption, not as a slow run.
fn rmc_workload(
    kernel: &Kernel,
    system: &Arc<ShrimpSystem>,
    finished: &Arc<Mutex<Option<SimTime>>>,
) {
    const VPAGES: usize = 12;
    const FRAMES: usize = 4;
    let (node_a, node_b) = traffic_pair(system);
    let names: shrimp_sim::SimChannel<BufferName> = shrimp_sim::SimChannel::new();
    {
        let system = Arc::clone(system);
        let names = names.clone();
        kernel.spawn("chaos-memserver", move |ctx| {
            // The export consumes its endpoint on failure, so a daemon
            // crash landing mid-setup costs a fresh endpoint per retry.
            let policy = RetryPolicy::bootstrap();
            let mut attempt = 0;
            let srv = loop {
                let vmmc = system.endpoint(node_b, format!("chaos-mem-{attempt}"));
                match MemoryServer::export(vmmc, ctx, VPAGES) {
                    Ok(s) => break s,
                    Err(VmmcError::DaemonUnavailable { .. }) if attempt + 1 < policy.attempts => {
                        ctx.advance(policy.timeout(attempt));
                        attempt += 1;
                    }
                    Err(e) => panic!("chaos memory-server export failed: {e}"),
                }
            };
            names.send(&ctx.handle(), srv.name());
            // The server CPU is done: its NIC answers fetches and
            // accepts write-back deposits on its own.
        });
    }
    {
        let vmmc = system.endpoint(node_a, "chaos-pager");
        let finished = Arc::clone(finished);
        kernel.spawn("chaos-pager", move |ctx| {
            let name = names.recv(ctx);
            let pool = vmmc
                .import_retry(ctx, NodeId(node_b), name, RetryPolicy::bootstrap())
                .unwrap();
            let mut pager = RemotePager::new(vmmc, pool, VPAGES, FRAMES);
            let mut reference = vec![vec![0u8; PAGE_SIZE]; VPAGES];
            let mut rng = shrimp_sim::SplitMix64::new(0xC0FFEE);
            for op in 0..(ROUNDS as usize * 30) {
                let page = rng.next_below(VPAGES as u64) as usize;
                let off = rng.next_below((PAGE_SIZE - 64) as u64) as usize;
                let addr = page * PAGE_SIZE + off;
                if rng.next_below(100) < 40 {
                    let data = [(op % 251) as u8; 64];
                    ride_out_rmc(ctx, || pager.write(ctx, addr, &data));
                    reference[page][off..off + 64].copy_from_slice(&data);
                } else {
                    let got = ride_out_rmc(ctx, || pager.read(ctx, addr, 64));
                    assert_eq!(
                        got,
                        &reference[page][off..off + 64],
                        "op {op}: page {page} off {off} diverged from the reference"
                    );
                }
            }
            ride_out_rmc(ctx, || pager.flush(ctx));
            // Full sweep: with VPAGES > FRAMES most pages fault back in
            // from the server, auditing its post-write-back contents.
            for (page, want) in reference.iter().enumerate() {
                let got = ride_out_rmc(ctx, || pager.read(ctx, page * PAGE_SIZE, PAGE_SIZE));
                assert_eq!(&got, want, "final sweep: page {page} lost a write-back");
            }
            *finished.lock() = Some(ctx.now());
        });
    }
}

/// Retry a pager operation through outages: a daemon outage or bounded
/// wait outlasting the pager's built-in retry policy means "the far
/// memory is unreachable right now" — back off one watchdog-scale beat
/// and reissue. Anything else (a protection deny on a read-exported
/// pool, a wild address) is a contract breach.
fn ride_out_rmc<T>(ctx: &Ctx, mut op: impl FnMut() -> Result<T, VmmcError>) -> T {
    loop {
        match op() {
            Ok(v) => return v,
            Err(
                VmmcError::DaemonUnavailable { .. }
                | VmmcError::Timeout { .. }
                | VmmcError::FetchDenied { .. },
            ) => {
                ctx.advance(SimDur::from_us(1_000.0));
            }
            Err(e) => panic!("chaos rmc op failed: {e}"),
        }
    }
}

/// Retry `op` through outages, using the error's own retry
/// classification: every [`RetryClass::Transient`] failure (timeouts,
/// daemon outages, exhausted attempt budgets, expired deadline
/// budgets) means "the route is down right now" — back off one
/// watchdog-scale beat and go again. A terminal error is a contract
/// breach.
fn ride_out<T>(ctx: &Ctx, mut op: impl FnMut() -> Result<T, SvcError>) -> T {
    loop {
        match op() {
            Ok(v) => return v,
            Err(e) if e.class() == RetryClass::Transient => {
                ctx.advance(SimDur::from_us(1_000.0));
            }
            Err(e) => panic!("chaos svc op failed: {e}"),
        }
    }
}

/// The default fault-plan matrix: a healthy baseline, a scripted IPT
/// violation timed to land mid-traffic, and a light + heavy generated
/// plan per seed.
pub fn default_matrix(nodes: usize, seeds: &[u64]) -> Vec<(String, FaultPlan)> {
    let horizon = SimDur::from_us(4_000.0);
    let mut m = vec![
        ("baseline".to_string(), FaultPlan::empty()),
        (
            "scripted-ipt".to_string(),
            FaultPlan::scripted(vec![FaultEvent {
                at: SimTime::ZERO + SimDur::from_us(900.0),
                kind: FaultKind::IptViolation { node: 1 },
            }]),
        ),
    ];
    for &s in seeds {
        m.push((
            format!("light-{s}"),
            FaultPlan::generate(s, &FaultSpec::light(nodes, horizon)),
        ));
        m.push((
            format!("heavy-{s}"),
            FaultPlan::generate(s, &FaultSpec::heavy(nodes, horizon)),
        ));
    }
    m
}

/// Run the full matrix for one workload, asserting the recovery
/// contract cell by cell, and return the outcomes (baseline first).
///
/// # Panics
///
/// Panics on any contract breach (see [`run_cell`]), on a cell
/// exceeding the baseline by more than the plan's delay budget, or on
/// a scripted IPT cell whose log lacks the freeze → repair traversal.
pub fn run_matrix(workload: Workload, matrix: &[(String, FaultPlan)]) -> Vec<CellOutcome> {
    let mut outcomes = Vec::with_capacity(matrix.len());
    let mut baseline_ps: Option<u64> = None;
    for (name, plan) in matrix {
        let out = run_cell(workload, name, plan);
        if name == "baseline" {
            baseline_ps = Some(out.finished_ps);
        } else if let Some(base) = baseline_ps {
            let allowed = base + delay_budget(plan).as_ps();
            assert!(
                out.finished_ps <= allowed,
                "{} {}: finished at {} ps, over the bounded-degradation limit {} ps",
                workload.label(),
                name,
                out.finished_ps,
                allowed
            );
            // Monotonicity holds for every workload, svc included:
            // the PR 5 escape hatch existed because a promoted shard
            // stayed unreplicated and its cheaper degraded writes
            // could outrun the baseline. The watchdog's automatic
            // re-replication closes that — replication (and its cost)
            // come back, so faults can only slow a run down.
            assert!(
                out.finished_ps >= base,
                "{} {}: faults must never speed a run up",
                workload.label(),
                name
            );
        }
        if name == "scripted-ipt" {
            assert!(
                out.violations > 0,
                "scripted IPT violation must trip the freeze path"
            );
            assert!(
                out.log.contains("freeze node=1") && out.log.contains("repair node=1"),
                "{} scripted-ipt: log lacks freeze/repair traversal:\n{}",
                workload.label(),
                out.log
            );
        }
        outcomes.push(out);
    }
    outcomes
}

/// Deterministic full-report rendering (byte-identical across replays
/// of the same matrix).
pub fn render_report(outcomes: &[CellOutcome]) -> String {
    let mut out = String::from("chaos report\n");
    for cell in outcomes {
        out.push_str(&cell.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmmc_scripted_ipt_traverses_freeze_and_repair() {
        let matrix = default_matrix(2, &[]);
        let outcomes = run_matrix(Workload::Vmmc, &matrix);
        assert_eq!(outcomes.len(), 2);
        let ipt = &outcomes[1];
        assert!(ipt.violations > 0);
        assert!(ipt.log.contains("freeze node=1"));
        assert!(ipt.log.contains("repair node=1"));
        assert!(
            ipt.finished_ps > outcomes[0].finished_ps,
            "freeze must cost time"
        );
    }

    #[test]
    fn same_seed_reports_are_bit_identical() {
        let matrix = default_matrix(2, &[11]);
        let a = render_report(&run_matrix(Workload::Vmmc, &matrix));
        let b = render_report(&run_matrix(Workload::Vmmc, &matrix));
        assert_eq!(a, b, "same seed and plan must replay bit-identically");
        let other = default_matrix(2, &[12]);
        let c = render_report(&run_matrix(Workload::Vmmc, &other));
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn socket_workload_survives_light_faults() {
        let matrix = default_matrix(2, &[3]);
        let outcomes = run_matrix(Workload::Socket, &matrix);
        assert_eq!(outcomes.len(), 4);
    }

    #[test]
    fn coll_workload_survives_brownout_and_daemon_restart() {
        // The two plans the collective layer must specifically ride
        // out: a mesh-wide bandwidth brownout landing mid-traffic, and
        // a daemon restart landing in the export/import setup phase.
        let mut matrix = default_matrix(2, &[]);
        matrix.push((
            "scripted-brownout".to_string(),
            FaultPlan::scripted(vec![FaultEvent {
                at: SimTime::ZERO + SimDur::from_us(300.0),
                kind: FaultKind::Brownout {
                    factor: 4.0,
                    dur: SimDur::from_us(2_000.0),
                },
            }]),
        ));
        matrix.push((
            "scripted-daemon-restart".to_string(),
            FaultPlan::scripted(vec![FaultEvent {
                at: SimTime::ZERO + SimDur::from_us(40.0),
                kind: FaultKind::DaemonCrash {
                    node: 1,
                    downtime: SimDur::from_us(800.0),
                },
            }]),
        ));
        let outcomes = run_matrix(Workload::Coll, &matrix);
        assert_eq!(outcomes.len(), 4);
        let base = outcomes[0].finished_ps;
        for cell in &outcomes[1..] {
            assert!(
                cell.finished_ps >= base,
                "{}: faults sped a run up",
                cell.plan_name
            );
        }
    }

    #[test]
    fn coll_workload_survives_light_faults() {
        let matrix = default_matrix(2, &[9]);
        let outcomes = run_matrix(Workload::Coll, &matrix);
        assert_eq!(outcomes.len(), 4);
    }

    #[test]
    fn svc_workload_survives_brownout_and_primary_crash() {
        // The two plans the serving layer must specifically ride out:
        // a mesh-wide bandwidth brownout landing mid-traffic, and a
        // primary's daemon crashing long enough for the watchdog to
        // promote its backup — with every acked write still readable.
        let mut matrix = default_matrix(2, &[]);
        matrix.push((
            "scripted-brownout".to_string(),
            FaultPlan::scripted(vec![FaultEvent {
                at: SimTime::ZERO + SimDur::from_us(300.0),
                kind: FaultKind::Brownout {
                    factor: 4.0,
                    dur: SimDur::from_us(2_000.0),
                },
            }]),
        ));
        matrix.push((
            "scripted-primary-crash".to_string(),
            FaultPlan::scripted(vec![FaultEvent {
                at: SimTime::ZERO + SimDur::from_us(2_500.0),
                kind: FaultKind::DaemonCrash {
                    node: 1,
                    downtime: SimDur::from_us(800.0),
                },
            }]),
        ));
        let outcomes = run_matrix(Workload::Svc, &matrix);
        assert_eq!(outcomes.len(), 4);
        let crash = &outcomes[3];
        // run_matrix already asserted monotonicity and the bounded
        // delay budget (the re-replication watchdog restores the
        // replicated write path, so degraded-mode savings can no
        // longer mask the stall); the read-your-write checks inside
        // the workload did the correctness half.
        assert!(
            crash.log.contains("daemon-restart node=1"),
            "primary-crash cell must record the restart:\n{}",
            crash.log
        );
    }

    #[test]
    fn rmc_workload_survives_fetch_stall_and_light_faults() {
        // The plan the paging layer must specifically ride out: the
        // server's fetch engine stalling mid-traffic (replies held, in
        // order, never dropped), plus a generated light plan.
        let mut matrix = default_matrix(2, &[7]);
        matrix.push((
            "scripted-fetch-stall".to_string(),
            FaultPlan::scripted(vec![FaultEvent {
                at: SimTime::ZERO + SimDur::from_us(300.0),
                kind: FaultKind::FetchStall {
                    node: 1,
                    dur: SimDur::from_us(1_000.0),
                },
            }]),
        ));
        let outcomes = run_matrix(Workload::Rmc, &matrix);
        assert_eq!(outcomes.len(), 5);
        let stall = outcomes.last().unwrap();
        assert!(
            stall.finished_ps > outcomes[0].finished_ps,
            "a mid-traffic fetch stall must cost time"
        );
    }

    #[test]
    fn vmmc_cell_runs_on_torus_and_port_stall_costs_time() {
        use shrimp_mesh::Torus2D;
        let topo: TopologyRef = Arc::new(Torus2D::new(4, 2));
        let base = run_cell_on(
            Arc::clone(&topo),
            Workload::Vmmc,
            "baseline",
            &FaultPlan::empty(),
        );
        // Target the first hop of the pair's own route — derived from
        // the topology, not from grid arithmetic — and cross-check it
        // against the fabric's link enumeration.
        let (a, b) = (NodeId(0), NodeId(1));
        let hop = topo.route(a, b, 0)[0];
        assert!(
            topo.links()
                .iter()
                .any(|l| l.from == hop.router && l.port == hop.port),
            "routes must traverse enumerated links"
        );
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at: SimTime::ZERO + SimDur::from_us(300.0),
            kind: FaultKind::PortStall {
                router: hop.router,
                port: hop.port,
                dur: SimDur::from_us(400.0),
            },
        }]);
        let stalled = run_cell_on(Arc::clone(&topo), Workload::Vmmc, "port-stall", &plan);
        assert!(
            stalled.finished_ps > base.finished_ps,
            "stalling the pair's own link mid-traffic must cost time \
             ({} ps vs baseline {} ps)",
            stalled.finished_ps,
            base.finished_ps
        );
        assert!(
            stalled.finished_ps <= base.finished_ps + delay_budget(&plan).as_ps(),
            "port stall must stay within the bounded-degradation budget"
        );
        assert!(stalled.log.contains("port-stall router="));
    }

    #[test]
    fn coll_cell_replays_bit_identically_on_torus() {
        use shrimp_mesh::Torus2D;
        let topo: TopologyRef = Arc::new(Torus2D::new(2, 2));
        let plan = FaultPlan::generate(11, &FaultSpec::light(2, SimDur::from_us(4_000.0)));
        let a = run_cell_on(Arc::clone(&topo), Workload::Coll, "light-11", &plan);
        let b = run_cell_on(Arc::clone(&topo), Workload::Coll, "light-11", &plan);
        assert_eq!(
            a.render(),
            b.render(),
            "the same plan on the same fabric must replay bit-identically"
        );
    }

    #[test]
    fn nx_workload_survives_light_faults() {
        let matrix: Vec<_> = default_matrix(2, &[5])
            .into_iter()
            .filter(|(name, _)| name != "heavy-5")
            .collect();
        let outcomes = run_matrix(Workload::Nx, &matrix);
        assert_eq!(outcomes.len(), 3);
    }
}
