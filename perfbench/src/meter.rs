//! Timing and counting around each layer call a workload makes.
//!
//! Every workload builds its own `Kernel` and `ShrimpSystem` through the
//! public APIs and routes the calls that cost host time through a
//! [`Meter`]: system build, cluster spawn, the kernel run, and teardown.
//! After each run the meter reads the system's traffic and bus counters;
//! it also counts the workload's correctness checks.

use std::sync::Arc;
use std::time::Instant;

use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_obs::Recorder;
use shrimp_sim::{Kernel, MetricsRegistry, MetricsSnapshot};
use shrimp_svc::{SvcCluster, SvcConfig};

use crate::host::{alloc_counts, Usage};
use crate::trace::HostTrace;

/// Traffic and bus counters summed over every system a pass built.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    pub au_pkts: u64,
    pub du_pkts: u64,
    pub bytes_out: u64,
    pub injected: u64,
    pub payload_bytes: u64,
    /// Summed per-node memory-bus busy time, virtual µs.
    pub membus_busy_us: f64,
    /// Summed per-node EISA-bus busy time, virtual µs.
    pub eisa_busy_us: f64,
    /// Summed `nodes × virtual span` of every run, µs: the denominator
    /// of the busy fractions.
    pub node_span_us: f64,
}

/// Host cost of one pass, split by the layer call that spent it.
#[derive(Debug, Clone, Default)]
pub struct HostCost {
    pub wall_s: f64,
    /// Inside `ShrimpSystem::build`.
    pub build_s: f64,
    /// Inside `SvcCluster::spawn`.
    pub spawn_s: f64,
    /// Inside `Kernel::run_until_quiescent`.
    pub run_s: f64,
    /// Dropping kernels, systems and clusters.
    pub teardown_s: f64,
    pub usage: Usage,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub sim: MetricsSnapshot,
}

impl HostCost {
    /// The benchmark's set-up time: system build plus cluster spawn.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.spawn_s
    }
}

/// Correctness checks made during a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

/// What a [`Meter`] measured over one pass.
pub struct Measured {
    pub cost: HostCost,
    pub traffic: Traffic,
    pub checks: Checks,
    pub trace: Option<HostTrace>,
    /// The observability recorder's spans (empty when not tracing).
    pub spans: Vec<shrimp_obs::SpanRec>,
}

/// Per-pass instrumentation handed to a workload.
pub struct Meter {
    registry: MetricsRegistry,
    _registry_guard: shrimp_sim::MetricsGuard,
    recorder: Option<Arc<Recorder>>,
    _recorder_guard: Option<shrimp_obs::InstallGuard>,
    trace: Option<HostTrace>,
    cost: HostCost,
    traffic: Traffic,
    pub checks: Checks,
    start: Instant,
    usage0: Usage,
    allocs0: (u64, u64),
}

impl Meter {
    /// Start a pass. With `trace` set, an observability recorder is
    /// installed (every system the pass builds attaches to it) and host
    /// spans are recorded into `trace`.
    pub fn start(trace: Option<HostTrace>) -> Meter {
        let registry = MetricsRegistry::new();
        let registry_guard = registry.install();
        let recorder = trace.as_ref().map(|_| Recorder::new());
        let recorder_guard = recorder.as_ref().map(|r| r.install());
        let mut m = Meter {
            registry,
            _registry_guard: registry_guard,
            recorder,
            _recorder_guard: recorder_guard,
            trace,
            cost: HostCost::default(),
            traffic: Traffic::default(),
            checks: Checks::default(),
            start: Instant::now(),
            usage0: Usage::now(),
            allocs0: alloc_counts(),
        };
        m.enter("pass");
        m
    }

    fn enter(&mut self, name: &'static str) {
        if let Some(t) = &mut self.trace {
            t.enter(name);
        }
    }

    fn exit(&mut self) {
        if let Some(t) = &mut self.trace {
            t.exit();
        }
    }

    /// Time `f` as one host span named `name`, returning its result and
    /// the seconds it took.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.exit();
        (out, dt)
    }

    pub fn build(&mut self, kernel: &Kernel, config: SystemConfig) -> Arc<ShrimpSystem> {
        let (system, dt) = self.timed("core.build", || ShrimpSystem::build(kernel, config));
        self.cost.build_s += dt;
        system
    }

    pub fn spawn_cluster(&mut self, system: &Arc<ShrimpSystem>, cfg: SvcConfig) -> Arc<SvcCluster> {
        let (cluster, dt) = self.timed("svc.spawn", || SvcCluster::spawn(system, cfg));
        self.cost.spawn_s += dt;
        cluster
    }

    /// Run `kernel` to quiescence and add the system's traffic and bus
    /// counters to the pass totals.
    pub fn run(&mut self, kernel: &Kernel, system: &ShrimpSystem) {
        let (res, dt) = self.timed("sim.run", || kernel.run_until_quiescent());
        self.cost.run_s += dt;
        res.expect("simulation must quiesce without a process panic");
        let (report, _) = self.timed("core.report", || system.report());
        let t = &mut self.traffic;
        for nic in &report.nics {
            t.au_pkts += nic.au_packets_out;
            t.du_pkts += nic.du_packets_out;
            t.bytes_out += nic.bytes_out;
        }
        t.injected += report.mesh.injected;
        t.payload_bytes += report.mesh.payload_bytes;
        for &(mb, eb) in &report.bus_busy_us {
            t.membus_busy_us += mb;
            t.eisa_busy_us += eb;
        }
        t.node_span_us +=
            report.nics.len() as f64 * report.at.since(shrimp_sim::SimTime::ZERO).as_us();
        self.checks.check(report.violations == 0, || {
            format!("{} protection violations", report.violations)
        });
    }

    /// Drop a finished system (and whatever else holds its nodes) and
    /// time the teardown.
    pub fn teardown<T>(&mut self, parts: T) {
        let ((), dt) = self.timed("node.teardown", move || drop(parts));
        self.cost.teardown_s += dt;
    }

    /// Close the pass: host totals, and the recorder's spans when
    /// tracing.
    pub fn finish(mut self) -> Measured {
        self.exit();
        let mut cost = std::mem::take(&mut self.cost);
        cost.wall_s = self.start.elapsed().as_secs_f64();
        cost.usage = Usage::now().since(&self.usage0);
        let (a, b) = alloc_counts();
        cost.allocs = a - self.allocs0.0;
        cost.alloc_bytes = b - self.allocs0.1;
        cost.sim = self.registry.snapshot();
        Measured {
            cost,
            traffic: self.traffic,
            checks: self.checks,
            trace: self.trace.take(),
            spans: self
                .recorder
                .as_ref()
                .map(|r| r.spans())
                .unwrap_or_default(),
        }
    }
}
