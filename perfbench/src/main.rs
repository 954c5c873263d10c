//! perfbench: one benchmark for both of the simulator's clocks.
//!
//! ```text
//! perfbench --workload <pingpong|coll8x8|svc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The process pins itself to one CPU before any simulation thread
//! exists, generates the workload's inputs from the seed, and repeats
//! the workload in passes until the next pass would overrun `--seconds`
//! (at least one pass). Each pass builds its own kernels and systems.
//!
//! * `--trace 0` reports the end-to-end host metrics as medians over
//!   the passes: `wall_s`, `setup_s` and `peak_rss_mb`.
//! * `--trace 1` alternates untraced and traced passes. Traced passes
//!   install an observability recorder and record host spans around
//!   every layer call; the run reports the per-layer metrics and
//!   `trace_overhead_pct`, and writes the host spans to
//!   `$CARGO_TARGET_DIR/perfbench-spans/` at exit.
//!
//! Both modes print the workload's virtual results as a table, check
//! every output (see `digests.txt` for the committed virtual digests),
//! and end with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics`.

mod coll;
mod host;
mod meter;
mod pingpong;
mod svc;
mod trace;

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use shrimp_obs::Layer;

use crate::meter::{Measured, Meter};
use crate::trace::{self_time_us, user_self_us, HostTrace};

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

/// The seed the committed digests were taken at.
const DEFAULT_SEED: u64 = 42;

/// Committed virtual digests (`<workload> <hex>` lines).
const DIGESTS: &str = include_str!("../digests.txt");

/// FNV-1a over little-endian words: the virtual-result digest.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Pingpong,
    Coll8x8,
    Svc,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "pingpong" => Some(Workload::Pingpong),
            "coll8x8" => Some(Workload::Coll8x8),
            "svc" => Some(Workload::Svc),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Pingpong => "pingpong",
            Workload::Coll8x8 => "coll8x8",
            Workload::Svc => "svc",
        }
    }

    /// Whether the digest covers only virtual timings that no seed
    /// changes (the seed draws data, not the schedule).
    fn digest_is_seed_independent(self) -> bool {
        self != Workload::Svc
    }

    /// The per-layer metric name of the user-level library the workload
    /// drives.
    fn user_library(self) -> &'static str {
        match self {
            Workload::Pingpong => "sockets.user_self_us",
            Workload::Coll8x8 => "coll.user_self_us",
            Workload::Svc => "srpc.user_self_us",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val:?}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| format!("bad --seconds {val:?}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {val} out of range"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A named value with its unit.
type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

/// Generated inputs of one workload.
enum Inputs {
    Pingpong(pingpong::Inputs),
    Coll8x8(Arc<coll::Inputs>),
    Svc(svc::Inputs),
}

impl Inputs {
    fn new(w: Workload, seed: u64) -> Inputs {
        match w {
            Workload::Pingpong => Inputs::Pingpong(pingpong::Inputs::new(seed)),
            Workload::Coll8x8 => Inputs::Coll8x8(Arc::new(coll::Inputs::new(seed))),
            Workload::Svc => Inputs::Svc(svc::Inputs::new(seed)),
        }
    }
}

/// Virtual results of one pass, in a form common to all workloads.
struct Virt {
    digest: u64,
    /// The workload's virtual metrics: end-to-end results and those of
    /// the layers it drives.
    metrics: Vec<Metric>,
}

fn run_pass(inputs: &Inputs, m: &mut Meter) -> Virt {
    match inputs {
        Inputs::Pingpong(i) => {
            let o = pingpong::pass(m, i);
            let mut metrics = vec![metric("paper_err_pct", o.paper_err_pct(), "%")];
            metrics.extend(o.anchors().iter().map(|&(n, v, _, u)| metric(n, v, u)));
            Virt {
                digest: o.digest,
                metrics,
            }
        }
        Inputs::Coll8x8(i) => {
            let o = coll::pass(m, i);
            let last = *o.allreduce_us.last().expect("sizes are swept");
            let mut metrics = vec![
                metric("barrier_us", o.barrier_us, "us"),
                metric("allreduce_us", last, "us"),
            ];
            metrics.extend(
                coll::SIZES
                    .iter()
                    .zip(&o.allreduce_us)
                    .map(|(b, &us)| metric(format!("coll.allreduce_{b}_us"), us, "us")),
            );
            Virt {
                digest: o.digest,
                metrics,
            }
        }
        Inputs::Svc(i) => {
            let o = svc::pass(m, i);
            let (s, v) = (&o.steady, &o.overload);
            Virt {
                digest: o.digest,
                metrics: vec![
                    metric("get_p50_us", s.get.p50_us, "us"),
                    metric("get_p99_us", s.get.p99_us, "us"),
                    metric("svc.get_n", s.get.n as f64, "count"),
                    metric("write_p50_us", s.write.p50_us, "us"),
                    metric("write_p99_us", s.write.p99_us, "us"),
                    metric("svc.write_n", s.write.n as f64, "count"),
                    metric("steady_kops", s.achieved_kops, "kops"),
                    metric("overload_kops", v.achieved_kops, "kops"),
                    metric("shed_frac", v.shed_frac(), "ratio"),
                    metric("svc.queue_wait_p50_us", s.queue_wait.p50_us, "us"),
                    metric("svc.queue_wait_p99_us", s.queue_wait.p99_us, "us"),
                    metric("svc.service_p50_us", s.service.p50_us, "us"),
                    metric("svc.shed_reads", v.shed_reads as f64, "count"),
                    metric("svc.shed_writes", v.shed_writes as f64, "count"),
                    metric("svc.errors", (s.errors + v.errors) as f64, "count"),
                    metric("svc.gen_late_us", o.gen_late_us, "us"),
                ],
            }
        }
    }
}

/// Build (and drop) what one pass builds, without running it.
fn setup_only(inputs: &Inputs, m: &mut Meter) {
    match inputs {
        Inputs::Pingpong(_) => pingpong::setup_only(m),
        Inputs::Coll8x8(_) => coll::setup_only(m),
        Inputs::Svc(_) => svc::setup_only(m),
    }
}

/// Set-up-only samples taken before the passes, so that `setup_s` is a
/// median of several set-ups even when a run fits one pass.
const SETUP_SAMPLES: usize = 21;

struct PassResult {
    measured: Measured,
    virt: Virt,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of(passes: &[PassResult], f: impl Fn(&PassResult) -> f64) -> f64 {
    median(passes.iter().map(f).collect())
}

/// Every per-layer metric the traced run reports, in a fixed order;
/// layers the workload does not drive read 0.
fn layer_metrics(
    w: Workload,
    traced: &[PassResult],
    overhead_pct: f64,
    failed_frac: f64,
) -> Vec<Metric> {
    let host = |f: &dyn Fn(&PassResult) -> f64| median_of(traced, f);
    let first = &traced[0];
    let c = &first.measured.cost;
    let t = &first.measured.traffic;
    let self_us = self_time_us(&first.measured.spans);
    let self_of = |l: Layer| {
        self_us
            .iter()
            .find(|(x, _)| *x == l)
            .map_or(0.0, |&(_, v)| v)
    };
    let busy = |b: f64| b / t.node_span_us.max(1e-12);
    let mut out = vec![
        metric("sim.run_s", host(&|p| p.measured.cost.run_s), "s"),
        metric("sim.events", c.sim.events_executed as f64, "count"),
        metric("sim.resumes", c.sim.resumes as f64, "count"),
        metric("sim.fast_resumes", c.sim.fast_resumes as f64, "count"),
        metric(
            "sim.fast_resume_ratio",
            c.sim.fast_resumes as f64 / c.sim.resumes.max(1) as f64,
            "ratio",
        ),
        metric("sim.user_s", host(&|p| p.measured.cost.usage.user_s), "s"),
        metric("sim.sys_s", host(&|p| p.measured.cost.usage.sys_s), "s"),
        metric(
            "sim.vcsw",
            host(&|p| p.measured.cost.usage.vcsw as f64),
            "count",
        ),
        metric(
            "sim.ivcsw",
            host(&|p| p.measured.cost.usage.ivcsw as f64),
            "count",
        ),
        metric(
            "node.minflt",
            host(&|p| p.measured.cost.usage.minflt as f64),
            "count",
        ),
        metric("node.allocs", c.allocs as f64, "count"),
        metric("node.alloc_bytes", c.alloc_bytes as f64, "B"),
        metric(
            "node.teardown_s",
            host(&|p| p.measured.cost.teardown_s),
            "s",
        ),
        metric("node.membus_busy_frac", busy(t.membus_busy_us), "ratio"),
        metric("node.eisa_busy_frac", busy(t.eisa_busy_us), "ratio"),
        metric("core.build_s", host(&|p| p.measured.cost.build_s), "s"),
        metric("core.endpoint_self_us", self_of(Layer::Endpoint), "us"),
        metric("nic.au_pkts", t.au_pkts as f64, "count"),
        metric("nic.du_pkts", t.du_pkts as f64, "count"),
        metric("nic.bytes_out", t.bytes_out as f64, "B"),
        metric("nic.out_self_us", self_of(Layer::NicOut), "us"),
        metric("nic.in_self_us", self_of(Layer::NicIn), "us"),
        metric("nic.deposit_self_us", self_of(Layer::Deposit), "us"),
        metric("mesh.injected", t.injected as f64, "count"),
        metric("mesh.payload_bytes", t.payload_bytes as f64, "B"),
        metric("mesh.route_self_us", self_of(Layer::Mesh), "us"),
    ];
    // Virtual metrics of one workload read 0 on the others.
    let virt = |name: &str| {
        first
            .virt
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1)
    };
    for b in coll::SIZES {
        let name = format!("coll.allreduce_{b}_us");
        let v = virt(&name);
        out.push(metric(name, v, "us"));
    }
    for lib in [
        "coll.user_self_us",
        "sockets.user_self_us",
        "srpc.user_self_us",
    ] {
        let v = if lib == w.user_library() {
            user_self_us(&first.measured.spans)
        } else {
            0.0
        };
        out.push(metric(lib, v, "us"));
    }
    out.push(metric(
        "svc.spawn_s",
        host(&|p| p.measured.cost.spawn_s),
        "s",
    ));
    for (name, unit) in SVC_LAYER {
        out.push(metric(name, virt(name), unit));
    }
    out.push(metric("trace_overhead_pct", overhead_pct, "%"));
    // Each workload's virtual end-to-end results apply to that workload
    // only, so they cannot be end-to-end metrics of the whole benchmark.
    for (name, unit) in VIRTUAL_RESULTS {
        out.push(metric(name, virt(name), unit));
    }
    out.push(metric("failed_frac", failed_frac, "ratio"));
    out
}

/// The svc layer's virtual metrics.
const SVC_LAYER: [(&str, &str); 9] = [
    ("svc.get_n", "count"),
    ("svc.write_n", "count"),
    ("svc.queue_wait_p50_us", "us"),
    ("svc.queue_wait_p99_us", "us"),
    ("svc.service_p50_us", "us"),
    ("svc.shed_reads", "count"),
    ("svc.shed_writes", "count"),
    ("svc.errors", "count"),
    ("svc.gen_late_us", "us"),
];

/// The virtual results the traced run reports for every workload.
const VIRTUAL_RESULTS: [(&str, &str); 9] = [
    ("paper_err_pct", "%"),
    ("barrier_us", "us"),
    ("allreduce_us", "us"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("overload_kops", "kops"),
    ("shed_frac", "ratio"),
];

/// Format a value with every digit it was measured with.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn render_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        );
    }
    s.push_str("}}");
    s
}

fn committed_digest(w: Workload) -> Option<u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == w.name())
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <pingpong|coll8x8|svc> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let (cpu, allowed) = match host::pin_to_one_cpu() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot pin to one CPU: {e}");
            std::process::exit(1);
        }
    };
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} pinned_cpu={cpu} of {allowed} allowed",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    let inputs = Inputs::new(w, args.seed);
    let epoch = Instant::now();
    let mut setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let mut m = Meter::start(None);
            setup_only(&inputs, &mut m);
            m.finish().cost.setup_s()
        })
        .collect();
    let mut untraced: Vec<PassResult> = Vec::new();
    let mut traced: Vec<PassResult> = Vec::new();
    loop {
        let t0 = epoch.elapsed().as_secs_f64();
        let mut m = Meter::start(None);
        let virt = run_pass(&inputs, &mut m);
        untraced.push(PassResult {
            measured: m.finish(),
            virt,
        });
        if args.trace {
            let run_id = format!("{}-seed{}-pass{}", w.name(), args.seed, traced.len());
            let mut m = Meter::start(Some(HostTrace::new(run_id, epoch)));
            let virt = run_pass(&inputs, &mut m);
            traced.push(PassResult {
                measured: m.finish(),
                virt,
            });
        }
        let now = epoch.elapsed().as_secs_f64();
        if now + (now - t0) > args.seconds {
            break;
        }
    }

    // Correctness: every pass's checks, identical virtual digests in
    // every pass (traced or not), and the committed digest where it
    // applies to this seed.
    let all: Vec<&PassResult> = untraced.iter().chain(&traced).collect();
    let mut attempted: u64 = all.iter().map(|p| p.measured.checks.attempted).sum();
    let mut failed: u64 = all.iter().map(|p| p.measured.checks.failed).sum();
    let digest = untraced[0].virt.digest;
    for p in &all[1..] {
        attempted += 1;
        if p.virt.digest != digest {
            failed += 1;
            eprintln!(
                "check failed: virtual digest differs between passes ({:016x} vs {digest:016x})",
                p.virt.digest
            );
        }
    }
    let committed = committed_digest(w);
    let digest_checked = w.digest_is_seed_independent() || args.seed == DEFAULT_SEED;
    if digest_checked {
        attempted += 1;
        if committed != Some(digest) {
            failed += 1;
            eprintln!(
                "check failed: virtual digest {digest:016x} differs from the committed {}",
                committed.map_or("(none)".to_string(), |c| format!("{c:016x}"))
            );
        }
    }
    let correct = failed == 0;

    println!(
        "virtual digest {digest:016x} ({})",
        if digest_checked {
            "checked against digests.txt"
        } else {
            "seed-dependent, not checked"
        }
    );
    println!("{:<24} {:>14}  unit", "virtual metric", "value");
    for (name, v, unit) in &untraced[0].virt.metrics {
        println!("{name:<24} {v:>14.4}  {unit}");
    }
    println!(
        "{:<24} {:>14.6}  ratio",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    for (i, p) in untraced.iter().enumerate() {
        let c = &p.measured.cost;
        println!(
            "pass {i}: wall {:.4} s  setup {:.4} s  run {:.4} s  teardown {:.4} s  user {:.3} s  sys {:.3} s",
            c.wall_s,
            c.setup_s(),
            c.run_s,
            c.teardown_s,
            c.usage.user_s,
            c.usage.sys_s
        );
    }

    let metrics = if args.trace {
        let wall_u = median_of(&untraced, |p| p.measured.cost.wall_s);
        let wall_t = median_of(&traced, |p| p.measured.cost.wall_s);
        let overhead = (wall_t - wall_u) / wall_u * 100.0;
        let mut spans = String::new();
        for p in &traced {
            if let Some(t) = &p.measured.trace {
                t.render_jsonl(&mut spans);
            }
        }
        let dir = std::path::Path::new(
            &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
        )
        .join("perfbench-spans");
        let path = dir.join(format!("{}-seed{}.jsonl", w.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("host spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: cannot write host spans to {}: {e}",
                path.display()
            ),
        }
        layer_metrics(
            w,
            &traced,
            overhead,
            failed as f64 / attempted.max(1) as f64,
        )
    } else {
        vec![
            metric(
                "wall_s",
                median_of(&untraced, |p| p.measured.cost.wall_s),
                "s",
            ),
            metric(
                "setup_s",
                {
                    setups.extend(untraced.iter().map(|p| p.measured.cost.setup_s()));
                    median(setups)
                },
                "s",
            ),
            metric(
                "peak_rss_mb",
                host::Usage::now().maxrss_kb as f64 / 1024.0,
                "MB",
            ),
        ]
    };
    for (name, v, unit) in &metrics {
        println!("{name:<24} {v:>14.6}  {unit}");
    }
    println!("{}", render_json(correct, attempted, failed, &metrics));
}
