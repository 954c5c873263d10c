//! End-to-end fault-injection recovery on the fully-wired prototype:
//! scripted fault plans driving the freeze-and-interrupt path, daemon
//! crash/restart re-validation, and import retry under outages.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, ExportOpts, ShrimpSystem, SystemConfig, VmmcError};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, PAGE_SIZE};
use shrimp_sim::{
    FaultEvent, FaultKind, FaultPlan, Kernel, RetryPolicy, SimChannel, SimDur, SimTime,
};

fn prototype() -> (Kernel, Arc<ShrimpSystem>) {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    (kernel, system)
}

fn at_us(us: f64) -> SimTime {
    SimTime::ZERO + SimDur::from_us(us)
}

/// An injected IPT violation freezes the receive datapath mid-transfer;
/// the automatic OS recovery repairs it and the workload completes with
/// the data intact — the full freeze-interrupt → repair traversal.
#[test]
fn injected_ipt_violation_recovers_via_freeze_interrupt() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");
    let n = 2 * PAGE_SIZE;

    // Sabotage node 1's IPT after the export (40 us) and import (500 us)
    // complete but before the sender's packets land.
    let plan = FaultPlan::scripted(vec![FaultEvent {
        at: at_us(700.0),
        kind: FaultKind::IptViolation { node: 1 },
    }]);
    let log = system.apply_faults(&plan);

    {
        let names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(n, CacheMode::WriteBack);
            let name = rx.export(ctx, buf, n, ExportOpts::default()).unwrap();
            names.send(&ctx.handle(), name);
            rx.wait_u32(ctx, buf.add(n - 4), 64, |v| v == 0xD00D)
                .unwrap();
            let got = rx.proc_().peek(buf, n - 4).unwrap();
            assert_eq!(
                got,
                vec![0xABu8; n - 4],
                "no corruption through freeze/repair"
            );
        });
    }
    kernel.spawn("tx", move |ctx| {
        let name = names.recv(ctx);
        let dst = tx.import(ctx, NodeId(1), name).unwrap();
        let src = tx.proc_().alloc(n, CacheMode::WriteBack);
        let mut data = vec![0xABu8; n - 4];
        data.extend_from_slice(&0xD00Du32.to_le_bytes());
        // Pause so the sabotage lands before this transfer's packets.
        ctx.advance(SimDur::from_us(100.0));
        tx.proc_().write(ctx, src, &data).unwrap();
        tx.send(ctx, src, &dst, 0, n).unwrap();
    });
    kernel.run_until_quiescent().unwrap();

    // The violation was observed and repaired.
    assert!(!system.violations().is_empty(), "freeze path must trigger");
    assert!(!system.nic(1).is_frozen(), "recovery unfroze the datapath");
    let rendered = log.render();
    assert!(rendered.contains("ipt-violation"), "log: {rendered}");
    assert!(rendered.contains("freeze node=1"), "log: {rendered}");
    assert!(rendered.contains("repair node=1"), "log: {rendered}");
}

/// A daemon crash mid-run: imports fail typed during the outage, the
/// bootstrap retry policy rides it out (for an import and for an export
/// on the crashed node), and restart re-validates the export so traffic
/// then flows normally.
#[test]
fn daemon_crash_outage_is_survived_by_import_retry() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");
    let probe = system.endpoint(2, "probe");

    // Crash after the export completes (40 us) so the outage hits the
    // import paths, not the export itself.
    let plan = FaultPlan::scripted(vec![FaultEvent {
        at: at_us(100.0),
        kind: FaultKind::DaemonCrash {
            node: 1,
            downtime: SimDur::from_us(8_000.0),
        },
    }]);
    let log = system.apply_faults(&plan);

    let got = Arc::new(Mutex::new(None::<VmmcError>));
    {
        let names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let name = rx
                .export(ctx, buf, PAGE_SIZE, ExportOpts::default())
                .unwrap();
            names.send(&ctx.handle(), name);
            names.send(&ctx.handle(), name);
            rx.wait_u32(ctx, buf, 64, |v| v == 7).unwrap();
        });
    }
    {
        // A bare import during the outage sees the typed error.
        let g = Arc::clone(&got);
        let names = names.clone();
        kernel.spawn("probe", move |ctx| {
            let name = names.recv(ctx);
            ctx.advance(SimDur::from_us(100.0)); // well inside the outage
            *g.lock() = probe.import(ctx, NodeId(1), name).err();
        });
    }
    // An export on the crashed node, started inside the outage, succeeds
    // once the daemon restarts, with its notification handler intact.
    let late_names: SimChannel<BufferName> = SimChannel::new();
    let late_done = Arc::new(Mutex::new(None));
    let notified = Arc::new(Mutex::new(false));
    {
        let (late_names, late_done) = (late_names.clone(), Arc::clone(&late_done));
        let n = Arc::clone(&notified);
        let exporter = system.endpoint(1, "late");
        kernel.spawn("late", move |ctx| {
            ctx.advance(SimDur::from_us(200.0));
            let buf = exporter.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let opts = ExportOpts {
                handler: Some(Box::new(move |_ctx, _ev| *n.lock() = true)),
                ..Default::default()
            };
            let name = exporter
                .export_retry(ctx, buf, PAGE_SIZE, opts, RetryPolicy::bootstrap())
                .unwrap();
            *late_done.lock() = Some(ctx.now());
            late_names.send(&ctx.handle(), name);
            exporter.wait_notification(ctx);
        });
    }
    kernel.spawn("tx", move |ctx| {
        let name = names.recv(ctx);
        ctx.advance(SimDur::from_us(100.0));
        // Retry with backoff outlives the 8 ms outage.
        let dst = tx
            .import_retry(ctx, NodeId(1), name, RetryPolicy::bootstrap())
            .unwrap();
        let src = tx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
        tx.proc_().write_u32(ctx, src, 7).unwrap();
        tx.send(ctx, src, &dst, 0, 4).unwrap();
        let late = tx.import(ctx, NodeId(1), late_names.recv(ctx)).unwrap();
        tx.send_notify(ctx, src, &late, 0, 4).unwrap();
    });
    kernel.run_until_quiescent().unwrap();

    assert!(
        matches!(got.lock().clone(), Some(VmmcError::DaemonUnavailable { node }) if node == NodeId(1))
    );
    let done = late_done.lock().expect("late exporter ran");
    assert!(done >= at_us(8_100.0), "export waited for the restart");
    assert!(
        *notified.lock(),
        "the handler survived the refused attempts"
    );
    assert_eq!(system.daemon(1).restarts(), 1);
    assert!(!system.daemon(1).is_down());
    let rendered = log.render();
    assert!(rendered.contains("daemon-crash"), "log: {rendered}");
    assert!(
        rendered.contains("daemon-restart node=1"),
        "log: {rendered}"
    );
}

/// Exhausting the retry policy during a long outage surfaces a typed
/// timeout whose budget matches the policy, for imports and exports
/// alike.
#[test]
fn import_retry_times_out_when_outage_outlasts_policy() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");

    // Outage starting after the export, far longer than the policy's
    // total budget.
    let plan = FaultPlan::scripted(vec![FaultEvent {
        at: at_us(100.0),
        kind: FaultKind::DaemonCrash {
            node: 1,
            downtime: SimDur::from_us(1_000_000.0),
        },
    }]);
    system.apply_faults(&plan);

    let policy = RetryPolicy::new(3, SimDur::from_us(1_000.0), SimDur::from_us(4_000.0));
    let budget = SimDur::from_us(1_000.0) + SimDur::from_us(2_000.0) + SimDur::from_us(4_000.0);
    let exported = Arc::new(Mutex::new(None));
    {
        let names = names.clone();
        let exported = Arc::clone(&exported);
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let name = rx
                .export(ctx, buf, PAGE_SIZE, ExportOpts::default())
                .unwrap();
            names.send(&ctx.handle(), name);
            // A second export, after the crash, outlives the policy too.
            ctx.advance(SimDur::from_us(150.0));
            *exported.lock() =
                Some(rx.export_retry(ctx, buf, PAGE_SIZE, ExportOpts::default(), policy));
        });
    }
    let seen = Arc::new(Mutex::new(None));
    {
        let seen = Arc::clone(&seen);
        kernel.spawn("tx", move |ctx| {
            let name = names.recv(ctx);
            ctx.advance(SimDur::from_us(50.0));
            *seen.lock() = Some(tx.import_retry(ctx, NodeId(1), name, policy));
        });
    }
    kernel.run_until_quiescent().unwrap();
    for (want, outcome) in [
        ("import", seen.lock().take().expect("tx ran").map(|_| ())),
        (
            "export",
            exported.lock().take().expect("rx ran").map(|_| ()),
        ),
    ] {
        match outcome {
            Err(VmmcError::Timeout { op, waited }) => {
                assert_eq!(op, want);
                assert_eq!(waited, budget);
            }
            other => panic!("expected {want} timeout, got {other:?}"),
        }
    }
}

/// Mesh faults (link stall + brownout) plus a DMA stall only delay a
/// bulk transfer: every byte still lands, in order, and the machine
/// shuts down clean.
#[test]
fn delay_faults_preserve_data_and_ordering() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");
    let n = 4 * PAGE_SIZE;

    let plan = FaultPlan::scripted(vec![
        FaultEvent {
            at: at_us(20.0),
            kind: FaultKind::LinkStall {
                node: 0,
                dur: SimDur::from_us(300.0),
            },
        },
        FaultEvent {
            at: at_us(30.0),
            kind: FaultKind::Brownout {
                factor: 3.0,
                dur: SimDur::from_us(500.0),
            },
        },
        FaultEvent {
            at: at_us(40.0),
            kind: FaultKind::DmaStall {
                node: 1,
                dur: SimDur::from_us(400.0),
            },
        },
    ]);
    system.apply_faults(&plan);

    {
        let names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(n, CacheMode::WriteBack);
            let name = rx.export(ctx, buf, n, ExportOpts::default()).unwrap();
            names.send(&ctx.handle(), name);
            rx.wait_u32(ctx, buf.add(n - 4), 64, |v| v == 0xBEEF)
                .unwrap();
            let got = rx.proc_().peek(buf, n - 4).unwrap();
            let want: Vec<u8> = (0..n - 4).map(|i| (i % 251) as u8).collect();
            assert_eq!(got, want, "delays must never corrupt data");
        });
    }
    kernel.spawn("tx", move |ctx| {
        let name = names.recv(ctx);
        let dst = tx.import(ctx, NodeId(1), name).unwrap();
        let src = tx.proc_().alloc(n, CacheMode::WriteBack);
        let mut data: Vec<u8> = (0..n - 4).map(|i| (i % 251) as u8).collect();
        data.extend_from_slice(&0xBEEFu32.to_le_bytes());
        tx.proc_().write(ctx, src, &data).unwrap();
        tx.send(ctx, src, &dst, 0, n).unwrap();
    });
    kernel.run_until_quiescent().unwrap();
    assert!(
        system.violations().is_empty(),
        "delay faults cause no violations"
    );
    assert!(system.quiescent(), "clean shutdown");
}
