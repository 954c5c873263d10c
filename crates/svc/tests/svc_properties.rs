//! End-to-end properties of the sharded replicated KV service:
//!
//! * the cluster, driven by many concurrent clients, ends in exactly
//!   the state a sequential reference reaches when replaying the acked
//!   mutations in sequence order — and the backup replicas match the
//!   primaries bit-for-bit;
//! * killing a shard primary mid-run loses no acknowledged write, and
//!   the whole failover (promotion sequence, final state) replays
//!   bit-identically from the same fault plan.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_sim::{FaultEvent, FaultKind, FaultPlan, Kernel, SimDur, SimTime, SplitMix64};
use shrimp_svc::{Op, ShardStore, SvcClient, SvcCluster, SvcConfig};

/// One client's acked mutations: `(shard, acked seq, op)`.
type AckLog = Vec<(usize, u64, Op)>;

fn scripted_ops(seed: u64, client: usize, n: usize, keys: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n)
        .map(|_| {
            let key = format!("key-{:04}", rng.next_below(keys)).into_bytes();
            if rng.next_below(100) < 25 {
                Op::Del { key }
            } else {
                let mut val = vec![0u8; 8 + rng.next_below(24) as usize];
                rng.fill_bytes(&mut val);
                Op::Put { key, val }
            }
        })
        .collect()
}

struct RunOutcome {
    acked: Vec<AckLog>,
    errors: u64,
    promotion_log: String,
    state_digest: u64,
    /// `(shard, primary digest, backup digest if replicated, backup
    /// survived at epoch 0)`.
    replicas: Vec<(usize, u64, Option<u64>, bool)>,
    cluster: Arc<SvcCluster>,
}

/// Drive `clients` concurrent scripted clients against a fresh
/// prototype cluster under `plan`, with `pace` virtual time between
/// each client's operations.
fn run_cluster(
    seed: u64,
    clients: usize,
    ops_per_client: usize,
    plan: &FaultPlan,
    pace: SimDur,
) -> RunOutcome {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    system.apply_faults(plan);
    let nodes = system.len();
    let mut cfg = SvcConfig::chained(nodes);
    cfg.conns_per_shard = clients.max(cfg.conns_per_shard);
    let cluster = SvcCluster::spawn(&system, cfg);
    cluster.register_clients(clients);

    let acked: Vec<Arc<Mutex<AckLog>>> = (0..clients).map(|_| Arc::default()).collect();
    let errors = Arc::new(Mutex::new(0u64));
    for (c, log) in acked.iter().enumerate() {
        let cluster = Arc::clone(&cluster);
        let ops = scripted_ops(seed, c, ops_per_client, 64);
        let log = Arc::clone(log);
        let errors = Arc::clone(&errors);
        kernel.spawn(format!("client{c}"), move |ctx| {
            let mut cli = SvcClient::new(&cluster, c % nodes, format!("t{c}"));
            for op in &ops {
                if pace > SimDur::ZERO {
                    ctx.advance(pace);
                }
                match cli.apply(ctx, op) {
                    Ok(a) => log.lock().push((cli.shard_of(op.key()), a.seq, op.clone())),
                    Err(e) => {
                        assert!(
                            e.class() == shrimp_svc::RetryClass::Transient,
                            "unexpected hard error: {e}"
                        );
                        *errors.lock() += 1;
                    }
                }
            }
            cluster.client_done();
        });
    }
    kernel.run_until_quiescent().unwrap();
    // Daemon crashes legitimately freeze the receive path (the chaos
    // harness asserts those violations occur); only a fault-free run
    // must stay clean.
    if plan.events.is_empty() {
        assert!(system.violations().is_empty(), "{:?}", system.violations());
    }

    let replicas = (0..cluster.config().shards)
        .map(|s| {
            let route = cluster.route(s);
            // After a promotion `authoritative_store` IS the backup
            // store (same mutex) — take the digests one at a time.
            let auth = cluster.authoritative_store(s).lock().digest();
            let bak = cluster.backup_store(s).map(|b| b.lock().digest());
            (s, auth, bak, route.backup.is_some() && route.epoch == 0)
        })
        .collect();
    let errors = *errors.lock();
    RunOutcome {
        acked: acked.iter().map(|a| a.lock().clone()).collect(),
        errors,
        promotion_log: cluster.promotion_log(),
        state_digest: cluster.state_digest(),
        replicas,
        cluster,
    }
}

/// Replay every acked mutation, per shard in sequence order, into
/// fresh reference stores and compare them to the cluster's
/// authoritative state.
fn assert_matches_reference(out: &RunOutcome, exact: bool) {
    let shards = out.cluster.config().shards;
    let mut by_shard: Vec<Vec<(u64, Op)>> = vec![Vec::new(); shards];
    for log in &out.acked {
        for (shard, seq, op) in log {
            by_shard[*shard].push((*seq, op.clone()));
        }
    }
    for (shard, mut muts) in by_shard.into_iter().enumerate() {
        muts.sort_by_key(|(seq, _)| *seq);
        let store = out.cluster.authoritative_store(shard);
        let store = store.lock();
        if exact {
            // Fault-free: every applied mutation was acked exactly
            // once, so the replay IS the store.
            let mut reference = ShardStore::new();
            for (seq, op) in &muts {
                assert_eq!(reference.last_seq() + 1, *seq, "acked seqs must be gapless");
                reference.apply_at(*seq, op);
            }
            assert_eq!(
                store.entries(),
                reference.entries(),
                "shard {shard} diverged from the sequential reference"
            );
            assert_eq!(store.digest(), reference.digest());
        } else {
            // Under faults retries may re-apply, so the store can hold
            // *newer* states; zero-lost-acks is the invariant: every
            // acked write is still reflected at `>=` its acked seq.
            for (seq, op) in &muts {
                let (eseq, val) = store.get(op.key());
                assert!(
                    eseq >= *seq,
                    "shard {shard}: acked seq {seq} for {:?} lost (entry seq {eseq})",
                    String::from_utf8_lossy(op.key())
                );
                if eseq == *seq {
                    match op {
                        Op::Put { val: v, .. } => assert_eq!(val, Some(v.as_slice())),
                        Op::Del { .. } => assert_eq!(val, None),
                    }
                }
            }
        }
    }
}

#[test]
fn two_clients_match_reference_and_replicas_agree() {
    let out = run_cluster(11, 2, 24, &FaultPlan::empty(), SimDur::ZERO);
    assert_eq!(out.errors, 0, "fault-free run must not error");
    assert!(out.promotion_log.is_empty());
    assert_matches_reference(&out, true);
    for (shard, primary, backup, intact) in &out.replicas {
        assert!(intact);
        assert_eq!(
            Some(*primary),
            *backup,
            "shard {shard}: backup diverged from primary"
        );
    }
}

#[test]
fn lost_acks_audit_counts_a_forged_put_the_store_does_not_hold() {
    let out = run_cluster(11, 2, 24, &FaultPlan::empty(), SimDur::ZERO);
    assert_eq!(out.cluster.lost_acks(&out.acked.concat()), 0);

    // A live entry, acked at its own sequence: held with the value the
    // store has, lost with any other value.
    let (shard, key, seq, val) = (0..out.cluster.config().shards)
        .find_map(|shard| {
            let entries = out.cluster.authoritative_store(shard).lock().entries();
            entries
                .into_iter()
                .find_map(|(key, seq, val)| val.map(|val| (shard, key, seq, val)))
        })
        .expect("the run must leave a live key");
    let genuine = Op::Put {
        key: key.clone(),
        val: val.clone(),
    };
    assert_eq!(out.cluster.lost_acks(&[(shard, seq, genuine)]), 0);
    let mut other = val;
    other.push(b'!');
    let forged = Op::Put { key, val: other };
    assert_eq!(out.cluster.lost_acks(&[(shard, seq, forged)]), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The tentpole correctness property: any number of concurrent
    /// clients (2–16), any seed — the sharded replicated store matches
    /// the sequential reference, and every backup equals its primary
    /// at quiescence.
    #[test]
    fn sharded_store_matches_sequential_reference(
        seed in 0u64..1_000_000,
        clients in 2usize..17,
        ops in 5usize..21,
    ) {
        let out = run_cluster(seed, clients, ops, &FaultPlan::empty(), SimDur::ZERO);
        prop_assert_eq!(out.errors, 0, "fault-free run must not error");
        assert_matches_reference(&out, true);
        for (shard, primary, backup, intact) in &out.replicas {
            prop_assert!(*intact, "shard {} lost its backup without faults", shard);
            prop_assert_eq!(Some(*primary), *backup);
        }
    }
}

#[test]
fn primary_crash_loses_no_acked_write_and_replays_bit_identically() {
    // Node 1 dies mid-run: shard 1's primary (promoted to node 2) and
    // shard 0's backup (demoted) in one event.
    let plan = FaultPlan::scripted(vec![FaultEvent {
        at: SimTime::ZERO + SimDur::from_us(1_500.0),
        kind: FaultKind::DaemonCrash {
            node: 1,
            downtime: SimDur::from_us(3_000.0),
        },
    }]);
    let run = || run_cluster(23, 3, 80, &plan, SimDur::from_us(30.0));

    let a = run();
    assert!(
        a.promotion_log
            .contains("promote shard=1 epoch=1 node1->node2"),
        "expected shard 1 to fail over, log:\n{}",
        a.promotion_log
    );
    assert_matches_reference(&a, false);

    // Same plan, same seeds: bit-identical failover and final state.
    let b = run();
    assert_eq!(a.promotion_log, b.promotion_log);
    assert_eq!(a.state_digest, b.state_digest);
    assert_eq!(a.acked, b.acked);
    assert_eq!(a.errors, b.errors);
}

/// No two acked writes may carry the same `(shard, seq)`: a duplicate
/// means two server generations both applied at the same sequence —
/// exactly the stale-write window the epoch fencing exists to close.
fn assert_no_duplicate_acks(out: &RunOutcome) {
    let mut seen = std::collections::HashSet::new();
    for log in &out.acked {
        for (shard, seq, _) in log {
            assert!(
                seen.insert((*shard, *seq)),
                "duplicate acked sequence {seq} on shard {shard}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Double promotion: shard 1's primary (node 1) dies, the backup
    /// on node 2 is promoted, the watchdog re-arms a fresh backup —
    /// and then node 2 dies too. Clients holding channels from up to
    /// two epochs back must converge on the third generation with no
    /// acked write lost and no sequence double-assigned, for any
    /// crash timing in the window.
    #[test]
    fn double_promotion_converges_without_lost_or_duplicate_acks(
        t1_us in 800u64..1_400,
        gap_us in 900u64..1_500,
    ) {
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                at: SimTime::ZERO + SimDur::from_us(t1_us as f64),
                kind: FaultKind::DaemonCrash {
                    node: 1,
                    downtime: SimDur::from_us(10_000.0),
                },
            },
            FaultEvent {
                at: SimTime::ZERO + SimDur::from_us((t1_us + gap_us) as f64),
                kind: FaultKind::DaemonCrash {
                    node: 2,
                    downtime: SimDur::from_us(10_000.0),
                },
            },
        ]);
        let out = run_cluster(31, 3, 120, &plan, SimDur::from_us(30.0));
        let shard1_promos = out
            .cluster
            .promotions()
            .iter()
            .filter(|p| p.shard == 1)
            .count();
        prop_assert!(
            shard1_promos >= 2,
            "expected two promotions on shard 1 (gap {gap_us} us), log:\n{}",
            out.cluster.event_log()
        );
        prop_assert!(out.cluster.route(1).epoch >= 2);
        assert_matches_reference(&out, false);
        assert_no_duplicate_acks(&out);
    }
}

#[test]
fn scripted_migration_is_zero_lost_and_replays_bit_identically() {
    // A fault-plan directive moves shard 0's primary from node 0 to
    // node 2 mid-run: snapshot, freeze, delta, cut, epoch bump — then
    // the watchdog re-arms a backup for the new primary.
    let plan = FaultPlan::scripted(vec![FaultEvent {
        at: SimTime::ZERO + SimDur::from_us(1_200.0),
        kind: FaultKind::Directive {
            op: "migrate",
            a: 0,
            b: 2,
        },
    }]);
    let run = || run_cluster(29, 3, 80, &plan, SimDur::from_us(30.0));

    let a = run();
    let log = a.cluster.event_log();
    assert!(
        log.contains("migrate shard=0") && log.contains("node0->node2"),
        "expected shard 0 to migrate, log:\n{log}"
    );
    assert!(
        log.contains("rearm shard=0"),
        "the watchdog must re-arm a backup for the migrated shard, log:\n{log}"
    );
    assert_eq!(a.cluster.route(0).primary, 2, "handoff must stick");
    assert_matches_reference(&a, false);
    assert_no_duplicate_acks(&a);

    // Planned handoffs replay bit-identically like everything else.
    let b = run();
    assert_eq!(a.cluster.event_log(), b.cluster.event_log());
    assert_eq!(a.state_digest, b.state_digest);
    assert_eq!(a.acked, b.acked);
}
