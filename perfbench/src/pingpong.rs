//! `pingpong`: the paper's Fig. 3 VMMC ping-pong (four copy
//! strategies) and Fig. 7 stream-socket ping-pong (three variants) on
//! the 4-node prototype, one fresh system per (series, size) point.
//!
//! Host cost here is node DRAM: every point builds, runs and drops a
//! whole machine, while only two processes ever run. The seed draws the
//! message payloads; virtual time does not depend on payload bytes, so
//! the point table and its digest are the same for every seed.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, ExportOpts, ImportHandle, SystemConfig, Vmmc};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, VAddr, PAGE_SIZE};
use shrimp_sim::{Ctx, SimChannel, SimTime, SplitMix64};
use shrimp_sockets::{connect, listen, SocketVariant};

use crate::meter::Meter;
use crate::Fnv;

/// The paper's message sizes (`shrimp_bench::paper_sizes()`).
pub const SIZES: [usize; 22] = [
    4, 8, 16, 24, 32, 40, 48, 56, 64, 128, 256, 512, 1024, 2048, 3072, 4096, 5120, 6144, 7168,
    8192, 9216, 10240,
];

const WARMUP: u32 = 2;
const ROUNDS: u32 = 8;
const POLL_BUDGET: usize = 10_000;

/// The paper's anchors the cost model was calibrated to.
const AU_1WORD_US: f64 = 4.75;
const DU_1WORD_US: f64 = 7.6;
const DU0_PEAK_MBS: f64 = 23.0;
const SOCKET_OVERHEAD_US: f64 = 13.0;

/// VMMC base-layer transfer strategies (paper §3.4), named as in the
/// paper's legend.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    Au1Copy,
    Au2Copy,
    Du0Copy,
    Du1Copy,
}

impl Strategy {
    fn is_au(self) -> bool {
        matches!(self, Strategy::Au1Copy | Strategy::Au2Copy)
    }

    fn copies_on_receive(self) -> bool {
        matches!(self, Strategy::Au2Copy | Strategy::Du1Copy)
    }
}

#[derive(Debug, Clone, Copy)]
enum Series {
    Vmmc(Strategy),
    Socket(SocketVariant),
}

const SERIES: [(&str, Series); 7] = [
    ("vmmc-AU-1copy", Series::Vmmc(Strategy::Au1Copy)),
    ("vmmc-AU-2copy", Series::Vmmc(Strategy::Au2Copy)),
    ("vmmc-DU-0copy", Series::Vmmc(Strategy::Du0Copy)),
    ("vmmc-DU-1copy", Series::Vmmc(Strategy::Du1Copy)),
    ("sock-AU-2copy", Series::Socket(SocketVariant::Au2Copy)),
    ("sock-DU-1copy", Series::Socket(SocketVariant::Du1Copy)),
    ("sock-DU-2copy", Series::Socket(SocketVariant::Du2Copy)),
];

/// Generated inputs: one payload per size.
pub struct Inputs {
    payloads: Vec<Arc<Vec<u8>>>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let payloads = SIZES
            .iter()
            .map(|&n| {
                let mut rng =
                    SplitMix64::new(seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut v = vec![0u8; n];
                rng.fill_bytes(&mut v);
                Arc::new(v)
            })
            .collect();
        Inputs { payloads }
    }
}

/// Virtual results of one pass.
pub struct Outcome {
    /// One-way latency per (series, size), µs, in `SERIES` × `SIZES` order.
    pub latency_us: Vec<f64>,
    pub digest: u64,
}

impl Outcome {
    fn at(&self, series: usize, size: usize) -> f64 {
        let j = SIZES
            .iter()
            .position(|&s| s == size)
            .expect("anchor size is swept");
        self.latency_us[series * SIZES.len() + j]
    }

    /// The paper anchors as measured: `(name, measured, paper, unit)`.
    pub fn anchors(&self) -> [(&'static str, f64, f64, &'static str); 4] {
        let du0_peak = SIZES
            .iter()
            .map(|&n| n as f64 / self.at(2, n))
            .fold(0.0, f64::max);
        [
            ("au_1word_us", self.at(0, 4), AU_1WORD_US, "us"),
            ("du_1word_us", self.at(2, 4), DU_1WORD_US, "us"),
            ("du0_peak_mbs", du0_peak, DU0_PEAK_MBS, "MB/s"),
            (
                "socket_overhead_us",
                self.at(4, 16) - self.at(1, 16),
                SOCKET_OVERHEAD_US,
                "us",
            ),
        ]
    }

    /// Largest relative error against the paper anchors, in percent.
    pub fn paper_err_pct(&self) -> f64 {
        self.anchors()
            .iter()
            .map(|(_, got, paper, _)| ((got - paper) / paper).abs() * 100.0)
            .fold(0.0, f64::max)
    }
}

/// Build and drop every system a pass builds, without running them: a
/// set-up time sample.
pub fn setup_only(m: &mut Meter) {
    for _ in 0..SERIES.len() * SIZES.len() {
        let kernel = shrimp_sim::Kernel::new();
        let system = m.build(&kernel, SystemConfig::prototype());
        m.teardown((kernel, system));
    }
}

pub fn pass(m: &mut Meter, inputs: &Inputs) -> Outcome {
    let mut latency_us = Vec::with_capacity(SERIES.len() * SIZES.len());
    let mut h = Fnv::default();
    for (si, (label, series)) in SERIES.iter().enumerate() {
        for (j, &size) in SIZES.iter().enumerate() {
            let payload = &inputs.payloads[j];
            let (t0, t1) = match *series {
                Series::Vmmc(s) => vmmc_point(m, s, payload),
                Series::Socket(v) => socket_point(m, v, payload),
            };
            let one_way = (t1 - t0).as_us() / (2.0 * ROUNDS as f64);
            m.checks.check(one_way > 0.0, || {
                format!("{label} {size} B: no round trip timed")
            });
            h.u64(si as u64);
            h.u64(size as u64);
            h.u64(one_way.to_bits());
            latency_us.push(one_way);
        }
    }
    Outcome {
        latency_us,
        digest: h.finish(),
    }
}

struct Side {
    vmmc: Vmmc,
    recv: VAddr,
    user: VAddr,
    au_send: Option<VAddr>,
    peer: ImportHandle,
    size: usize,
}

impl Side {
    fn setup(
        vmmc: Vmmc,
        ctx: &Ctx,
        size: usize,
        strategy: Strategy,
        names: (&SimChannel<BufferName>, &SimChannel<BufferName>),
        peer_node: NodeId,
    ) -> Side {
        let pages = size.div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE;
        let p = vmmc.proc_().clone();
        let recv = p.alloc(pages, CacheMode::WriteBack);
        let user = p.alloc(pages, CacheMode::WriteBack);
        let name = vmmc
            .export(ctx, recv, pages, ExportOpts::default())
            .expect("export");
        names.0.send(&ctx.handle(), name);
        let peer_name = names.1.recv(ctx);
        let peer = vmmc.import(ctx, peer_node, peer_name).expect("import");
        let au_send = strategy.is_au().then(|| {
            let au = p.alloc(pages, CacheMode::WriteBack);
            vmmc.bind_au(ctx, au, &peer, 0, pages / PAGE_SIZE, true, false)
                .expect("bind AU");
            au
        });
        Side {
            vmmc,
            recv,
            user,
            au_send,
            peer,
            size,
        }
    }

    /// Send one message whose last word is the arrival flag `seq`.
    fn send(&self, ctx: &Ctx, seq: u32) {
        let n = self.size;
        let p = self.vmmc.proc_();
        p.write_u32(ctx, self.user.add(n - 4), seq)
            .expect("flag store");
        match self.au_send {
            Some(au) => p.copy(ctx, self.user, au, n).expect("AU copy"),
            None => self
                .vmmc
                .send(ctx, self.user, &self.peer, 0, n)
                .expect("DU send"),
        }
    }

    fn recv(&self, ctx: &Ctx, seq: u32, strategy: Strategy) {
        let n = self.size;
        self.vmmc
            .wait_u32(ctx, self.recv.add(n - 4), POLL_BUDGET, |v| v == seq)
            .expect("arrival flag");
        if strategy.copies_on_receive() {
            self.vmmc
                .proc_()
                .copy(ctx, self.recv, self.user, n)
                .expect("receive copy");
        }
    }
}

/// One VMMC ping-pong point on a fresh prototype; returns the virtual
/// instants bracketing the timed rounds.
fn vmmc_point(m: &mut Meter, strategy: Strategy, payload: &Arc<Vec<u8>>) -> (SimTime, SimTime) {
    let kernel = shrimp_sim::Kernel::new();
    let system = m.build(&kernel, SystemConfig::prototype());
    let a_names: SimChannel<BufferName> = SimChannel::new();
    let b_names: SimChannel<BufferName> = SimChannel::new();
    let timed: Arc<Mutex<Option<(SimTime, SimTime)>>> = Arc::new(Mutex::new(None));
    let received: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let size = payload.len();
    {
        let vmmc = system.endpoint(0, "ping");
        let (a, b) = (a_names.clone(), b_names.clone());
        let (timed, payload) = (Arc::clone(&timed), Arc::clone(payload));
        kernel.spawn("ping", move |ctx| {
            let side = Side::setup(vmmc, ctx, size, strategy, (&a, &b), NodeId(1));
            side.vmmc.proc_().poke(side.user, &payload).expect("fill");
            for r in 0..WARMUP {
                side.send(ctx, r * 2 + 1);
                side.recv(ctx, r * 2 + 2, strategy);
            }
            let t0 = ctx.now();
            for r in WARMUP..WARMUP + ROUNDS {
                side.send(ctx, r * 2 + 1);
                side.recv(ctx, r * 2 + 2, strategy);
            }
            *timed.lock() = Some((t0, ctx.now()));
        });
    }
    {
        let vmmc = system.endpoint(1, "pong");
        let received = Arc::clone(&received);
        let payload = Arc::clone(payload);
        kernel.spawn("pong", move |ctx| {
            let side = Side::setup(vmmc, ctx, size, strategy, (&b_names, &a_names), NodeId(0));
            side.vmmc.proc_().poke(side.user, &payload).expect("fill");
            for r in 0..WARMUP + ROUNDS {
                side.recv(ctx, r * 2 + 1, strategy);
                if r == 0 {
                    // The first message carries the ping's payload
                    // untouched except for its flag word.
                    *received.lock() = Some(side.vmmc.proc_().peek(side.recv, size).expect("peek"));
                }
                side.send(ctx, r * 2 + 2);
            }
        });
    }
    m.run(&kernel, &system);
    let got = received.lock().take();
    m.checks.check(
        got.as_deref()
            .is_some_and(|g| g[..size - 4] == payload[..size - 4]),
        || format!("vmmc {strategy:?} {size} B: payload corrupted"),
    );
    let t = timed.lock().expect("ping finished");
    m.teardown((kernel, system));
    t
}

/// One stream-socket ping-pong point on a fresh prototype. Every echo
/// is compared with what was sent.
fn socket_point(
    m: &mut Meter,
    variant: SocketVariant,
    payload: &Arc<Vec<u8>>,
) -> (SimTime, SimTime) {
    let kernel = shrimp_sim::Kernel::new();
    let system = m.build(&kernel, SystemConfig::prototype());
    let timed: Arc<Mutex<Option<(SimTime, SimTime)>>> = Arc::new(Mutex::new(None));
    let bad_echoes = Arc::new(Mutex::new(0u32));
    let size = payload.len();
    {
        let vmmc = system.endpoint(1, "server");
        let eth = Arc::clone(system.ethernet());
        kernel.spawn("server", move |ctx| {
            let listener = listen(vmmc, eth, 7777);
            let mut sock = listener.accept(ctx).expect("accept");
            for _ in 0..WARMUP + ROUNDS {
                let msg = sock.recv_exact(ctx, size).expect("server recv");
                sock.send(ctx, &msg).expect("server send");
            }
        });
    }
    {
        let vmmc = system.endpoint(0, "client");
        let eth = Arc::clone(system.ethernet());
        let (timed, bad, msg) = (
            Arc::clone(&timed),
            Arc::clone(&bad_echoes),
            Arc::clone(payload),
        );
        kernel.spawn("client", move |ctx| {
            let mut sock = connect(vmmc, ctx, &eth, NodeId(1), 7777, variant).expect("connect");
            let mut t0 = ctx.now();
            for r in 0..WARMUP + ROUNDS {
                if r == WARMUP {
                    t0 = ctx.now();
                }
                sock.send(ctx, &msg).expect("client send");
                let echo = sock.recv_exact(ctx, size).expect("client recv");
                *bad.lock() += (echo != *msg) as u32;
            }
            *timed.lock() = Some((t0, ctx.now()));
            sock.close(ctx).expect("close");
        });
    }
    m.run(&kernel, &system);
    let bad = *bad_echoes.lock();
    m.checks.check(bad == 0, || {
        format!("socket {variant:?} {size} B: {bad} corrupted echoes")
    });
    let t = timed.lock().expect("client finished");
    m.teardown((kernel, system));
    t
}
