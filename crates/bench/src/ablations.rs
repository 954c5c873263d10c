//! Ablations of the design choices DESIGN.md §5 calls out: what the
//! paper's co-design decisions are worth, measured.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, ExportOpts, ShrimpSystem, SystemConfig};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, CostModel};
use shrimp_nx::{NxConfig, NxWorld};
use shrimp_sim::{Kernel, SimChannel, SimDur, SimTime};

use crate::nx_pingpong::NxVariant;
use crate::pingpong::{vmmc_pingpong, Strategy};

/// A1 — combine-timeout sweep: one-word AU latency as a function of the
/// packetizer's hold window (the timer of paper §3.2).
pub fn combine_timeout_sweep() -> Vec<(f64, f64)> {
    [0.25, 0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|us| {
            let mut costs = CostModel::shrimp_prototype();
            costs.au_combine_timeout = SimDur::from_us(us);
            let p = vmmc_pingpong(Strategy::Au1Copy, 4, false, costs);
            (us, p.latency_us)
        })
        .collect()
}

/// A2 — write combining on/off for a 64-byte message written as sixteen
/// single-word stores (the marshaling pattern combining was built for).
/// Returns `(combine, one_way_us, packets, rx_eisa_busy_us)` per case:
/// combining trades a little hold-timer latency for an order of
/// magnitude fewer packets and far less receive-bus occupancy.
pub fn combining_on_off() -> [(bool, f64, u64, f64); 2] {
    fn run(combine: bool) -> (f64, u64, f64) {
        let kernel = Kernel::new();
        let mut config = SystemConfig::prototype();
        // A hold window longer than one word-store's cost, so the
        // combining mechanism (not the timer) is what is measured.
        config.costs.au_combine_timeout = SimDur::from_us(3.0);
        let system = ShrimpSystem::build(&kernel, config);
        let names: SimChannel<BufferName> = SimChannel::new();
        let t: Arc<Mutex<(SimTime, SimTime)>> =
            Arc::new(Mutex::new((SimTime::ZERO, SimTime::ZERO)));
        {
            let rx = system.endpoint(1, "rx");
            let names = names.clone();
            let t = Arc::clone(&t);
            kernel.spawn("rx", move |ctx| {
                let buf = rx.proc_().alloc(4096, CacheMode::WriteBack);
                let name = rx.export(ctx, buf, 4096, ExportOpts::default()).unwrap();
                names.send(&ctx.handle(), name);
                rx.wait_u32(ctx, buf.add(60), 4096, |v| v == 0xF1A6)
                    .unwrap();
                t.lock().1 = ctx.now();
            });
        }
        {
            let tx = system.endpoint(0, "tx");
            let t = Arc::clone(&t);
            kernel.spawn("tx", move |ctx| {
                let name = names.recv(ctx);
                let dst = tx.import(ctx, NodeId(1), name).unwrap();
                let au = tx.proc_().alloc(4096, CacheMode::WriteBack);
                tx.bind_au(ctx, au, &dst, 0, 1, combine, false).unwrap();
                t.lock().0 = ctx.now();
                // Sixteen word stores, the last one the flag.
                for w in 0..15u32 {
                    tx.proc_()
                        .write_u32(ctx, au.add(w as usize * 4), w + 1)
                        .unwrap();
                }
                tx.proc_().write_u32(ctx, au.add(60), 0xF1A6).unwrap();
            });
        }
        kernel.run_until_quiescent().unwrap();
        let (t0, t1) = *t.lock();
        let (busy, _txns, _bytes) = system.node(1).eisa().stats();
        (
            (t1 - t0).as_us(),
            system.nic(0).stats().au_packets_out,
            busy.as_us(),
        )
    }
    let on = run(true);
    let off = run(false);
    [(true, on.0, on.1, on.2), (false, off.0, off.1, off.2)]
}

/// A3 — the word-alignment restriction: NX DU-1copy one-way latency for
/// an aligned vs deliberately misaligned user buffer (the unaligned one
/// falls back to the marshal-copy path; paper §6 regrets this hardware
/// restriction).
pub fn alignment_fallback() -> (f64, f64) {
    fn run(offset: usize) -> f64 {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let mut config = NxConfig::paper_default();
        config.send_variant = shrimp_nx::SendVariant::DuFromUser;
        let world = NxWorld::new(Arc::clone(&system), config, vec![0, 1]);
        let out: Arc<Mutex<f64>> = Arc::new(Mutex::new(0.0));
        {
            let world = Arc::clone(&world);
            let out = Arc::clone(&out);
            kernel.spawn("tx", move |ctx| {
                let mut nx = world.join(ctx, 0);
                let buf = nx
                    .vmmc()
                    .proc_()
                    .alloc_at_offset(2048, offset, CacheMode::WriteBack);
                let rbuf = nx.vmmc().proc_().alloc(2048, CacheMode::WriteBack);
                for _ in 0..2 {
                    nx.csend(ctx, 1, buf, 1024, 1).unwrap();
                    nx.crecv(ctx, 2, rbuf, 2048).unwrap();
                }
                let t0 = ctx.now();
                const N: u32 = 8;
                for _ in 0..N {
                    nx.csend(ctx, 1, buf, 1024, 1).unwrap();
                    nx.crecv(ctx, 2, rbuf, 2048).unwrap();
                }
                *out.lock() = (ctx.now() - t0).as_us() / (2.0 * N as f64);
                nx.flush(ctx).unwrap();
            });
        }
        {
            let world = Arc::clone(&world);
            kernel.spawn("rx", move |ctx| {
                let mut nx = world.join(ctx, 1);
                let buf = nx.vmmc().proc_().alloc(2048, CacheMode::WriteBack);
                for _ in 0..10 {
                    nx.crecv(ctx, 1, buf, 2048).unwrap();
                    nx.csend(ctx, 2, buf, 1024, 0).unwrap();
                }
                nx.flush(ctx).unwrap();
            });
        }
        kernel.run_until_quiescent().unwrap();
        let v = *out.lock();
        v
    }
    (run(0), run(2))
}

/// A4 — the optimistic sender-side copy (paper footnote 1): how long a
/// blocking `csend` of a large message detains the application, with and
/// without the safe copy. Returns ((blocked_us, total_us), ...) for
/// (optimistic, non-optimistic).
pub fn optimistic_copy_on_off(len: usize) -> ((f64, f64), (f64, f64)) {
    fn run(optimistic: bool, len: usize) -> (f64, f64) {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let mut config = NxConfig::paper_default();
        config.optimistic_copy = optimistic;
        let world = NxWorld::new(Arc::clone(&system), config, vec![0, 1]);
        let out: Arc<Mutex<(f64, SimTime)>> = Arc::new(Mutex::new((0.0, SimTime::ZERO)));
        let done: Arc<Mutex<SimTime>> = Arc::new(Mutex::new(SimTime::ZERO));
        {
            let world = Arc::clone(&world);
            let out = Arc::clone(&out);
            kernel.spawn("tx", move |ctx| {
                let mut nx = world.join(ctx, 0);
                let buf = nx.vmmc().proc_().alloc(len, CacheMode::WriteBack);
                let t0 = ctx.now();
                nx.csend(ctx, 1, buf, len, 1).unwrap();
                out.lock().0 = (ctx.now() - t0).as_us(); // application blocked
                nx.flush(ctx).unwrap();
            });
        }
        {
            let world = Arc::clone(&world);
            let done = Arc::clone(&done);
            kernel.spawn("rx", move |ctx| {
                let mut nx = world.join(ctx, 1);
                let buf = nx.vmmc().proc_().alloc(len, CacheMode::WriteBack);
                // The receiver is busy for a while before it posts the
                // receive — exactly when the optimistic copy pays off.
                ctx.advance(SimDur::from_us(2_000.0));
                nx.crecv(ctx, 1, buf, len).unwrap();
                *done.lock() = ctx.now();
            });
        }
        kernel.run_until_quiescent().unwrap();
        let blocked = out.lock().0;
        let total = done.lock().as_us();
        (blocked, total)
    }
    (run(true, len), run(false, len))
}

/// A5 — separating data from control transfer: one-way latency of a
/// small transfer when every message also forces a notification
/// interrupt on the receiver (signal delivery included), against the
/// polling protocol. The gap is why the libraries avoid interrupts
/// (paper §6).
pub fn interrupt_per_message() -> (f64, f64) {
    // Polling baseline: the raw AU ping-pong.
    let polling =
        vmmc_pingpong(Strategy::Au1Copy, 16, false, CostModel::shrimp_prototype()).latency_us;

    // Notification path: receiver blocks on wait_notification; sender
    // uses send_notify.
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let names_rx: SimChannel<BufferName> = SimChannel::new();
    let names_tx: SimChannel<BufferName> = SimChannel::new();
    let out: Arc<Mutex<f64>> = Arc::new(Mutex::new(0.0));
    const N: u32 = 8;
    {
        let rx = system.endpoint(1, "rx");
        let (names_rx, names_tx) = (names_rx.clone(), names_tx.clone());
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(4096, CacheMode::WriteBack);
            let name = rx
                .export(
                    ctx,
                    buf,
                    4096,
                    ExportOpts {
                        perms: Default::default(),
                        handler: Some(Box::new(|_, _| {})),
                        ..Default::default()
                    },
                )
                .unwrap();
            names_rx.send(&ctx.handle(), name);
            let peer_name = names_tx.recv(ctx);
            let dst = rx.import(ctx, NodeId(0), peer_name).unwrap();
            let src = rx.proc_().alloc(4096, CacheMode::WriteBack);
            for _ in 0..N + 1 {
                rx.wait_notification(ctx);
                rx.send_notify(ctx, src, &dst, 0, 16).unwrap();
            }
        });
    }
    {
        let tx = system.endpoint(0, "tx");
        let out = Arc::clone(&out);
        kernel.spawn("tx", move |ctx| {
            let buf = tx.proc_().alloc(4096, CacheMode::WriteBack);
            let name = tx
                .export(
                    ctx,
                    buf,
                    4096,
                    ExportOpts {
                        perms: Default::default(),
                        handler: Some(Box::new(|_, _| {})),
                        ..Default::default()
                    },
                )
                .unwrap();
            let peer_name = names_rx.recv(ctx);
            names_tx.send(&ctx.handle(), name);
            let dst = tx.import(ctx, NodeId(1), peer_name).unwrap();
            let src = tx.proc_().alloc(4096, CacheMode::WriteBack);
            // Warmup round.
            tx.send_notify(ctx, src, &dst, 0, 16).unwrap();
            tx.wait_notification(ctx);
            let t0 = ctx.now();
            for _ in 0..N {
                tx.send_notify(ctx, src, &dst, 0, 16).unwrap();
                tx.wait_notification(ctx);
            }
            *out.lock() = (ctx.now() - t0).as_us() / (2.0 * N as f64);
        });
    }
    kernel.run_until_quiescent().unwrap();
    let with_interrupts = *out.lock();
    (polling, with_interrupts)
}

/// A6 — the zero-copy protocol itself: one-way latency of a 3 KB NX
/// message with the rendezvous allowed to go user-to-user, against the
/// chunked one-copy fallback (zero-copy disabled).
pub fn zero_copy_on_off() -> Vec<(bool, f64)> {
    [true, false]
        .into_iter()
        .map(|allow| {
            let kernel = Kernel::new();
            let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
            let mut config = NxVariant::Au2Copy.config();
            config.allow_zero_copy = allow;
            let world = NxWorld::new(Arc::clone(&system), config, vec![0, 1]);
            let out: Arc<Mutex<f64>> = Arc::new(Mutex::new(0.0));
            let size = 3072usize;
            {
                let world = Arc::clone(&world);
                let out = Arc::clone(&out);
                kernel.spawn("tx", move |ctx| {
                    let mut nx = world.join(ctx, 0);
                    let buf = nx.vmmc().proc_().alloc(size, CacheMode::WriteBack);
                    for _ in 0..2 {
                        nx.csend(ctx, 1, buf, size, 1).unwrap();
                        nx.crecv(ctx, 2, buf, size).unwrap();
                    }
                    let t0 = ctx.now();
                    const N: u32 = 6;
                    for _ in 0..N {
                        nx.csend(ctx, 1, buf, size, 1).unwrap();
                        nx.crecv(ctx, 2, buf, size).unwrap();
                    }
                    *out.lock() = (ctx.now() - t0).as_us() / (2.0 * N as f64);
                    nx.flush(ctx).unwrap();
                });
            }
            {
                let world = Arc::clone(&world);
                kernel.spawn("rx", move |ctx| {
                    let mut nx = world.join(ctx, 1);
                    let buf = nx.vmmc().proc_().alloc(size, CacheMode::WriteBack);
                    for _ in 0..8 {
                        nx.crecv(ctx, 1, buf, size).unwrap();
                        nx.csend(ctx, 2, buf, size, 0).unwrap();
                    }
                    nx.flush(ctx).unwrap();
                });
            }
            kernel.run_until_quiescent().unwrap();
            let v = *out.lock();
            (allow, v)
        })
        .collect()
}

/// A7 — credit-return batching: messages per second of a one-way small-
/// message stream as the receiver batches credits.
pub fn credit_batch_sweep() -> Vec<(usize, f64)> {
    [1usize, 4, 8]
        .into_iter()
        .map(|batch| {
            let mut config = NxConfig::paper_default();
            config.credit_batch = batch;
            let kernel = Kernel::new();
            let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
            let world = NxWorld::new(Arc::clone(&system), config, vec![0, 1]);
            let out: Arc<Mutex<f64>> = Arc::new(Mutex::new(0.0));
            const COUNT: usize = 200;
            {
                let world = Arc::clone(&world);
                kernel.spawn("tx", move |ctx| {
                    let mut nx = world.join(ctx, 0);
                    let buf = nx.vmmc().proc_().alloc(256, CacheMode::WriteBack);
                    for _ in 0..COUNT {
                        nx.csend(ctx, 1, buf, 128, 1).unwrap();
                    }
                    nx.flush(ctx).unwrap();
                });
            }
            {
                let world = Arc::clone(&world);
                let out = Arc::clone(&out);
                kernel.spawn("rx", move |ctx| {
                    let mut nx = world.join(ctx, 1);
                    let buf = nx.vmmc().proc_().alloc(256, CacheMode::WriteBack);
                    nx.crecv(ctx, 1, buf, 256).unwrap();
                    let t0 = ctx.now();
                    for _ in 1..COUNT {
                        nx.crecv(ctx, 1, buf, 256).unwrap();
                    }
                    *out.lock() = (COUNT - 1) as f64 / (ctx.now() - t0).as_secs();
                });
            }
            kernel.run_until_quiescent().unwrap();
            let v = *out.lock();
            (batch, v)
        })
        .collect()
}

/// The ablation report: A1–A7 in order.
pub fn report() -> String {
    let mut out = String::from("== A1: combine-timeout sweep (1-word AU latency) ==\n");
    for (timeout_us, latency_us) in combine_timeout_sweep() {
        out.push_str(&format!(
            "  hold window {timeout_us:>5.2} us  ->  one-way {latency_us:>6.2} us\n"
        ));
    }

    out.push_str("\n== A2: write combining on/off (64 B as 16 word stores) ==\n");
    for (combine, latency_us, packets, rx_bus_us) in combining_on_off() {
        out.push_str(&format!(
            "  combining {combine:<5}  latency {latency_us:>6.2} us  packets {packets:>3}  rx EISA busy {rx_bus_us:>5.2} us\n"
        ));
    }

    out.push_str("\n== A3: deliberate-update word-alignment restriction (NX DU-1copy, 1 KB) ==\n");
    let (aligned, unaligned) = alignment_fallback();
    out.push_str(&format!("  aligned buffer   {aligned:>7.2} us one-way\n"));
    out.push_str(&format!(
        "  unaligned buffer {unaligned:>7.2} us one-way (marshal-copy fallback, §6)\n"
    ));

    out.push_str("\n== A4: optimistic safe copy (16 KB csend, receiver 2 ms late) ==\n");
    let ((ob, ot), (bb, bt)) = optimistic_copy_on_off(16 * 1024);
    out.push_str(&format!(
        "  optimistic:     sender blocked {ob:>8.1} us, delivery complete {ot:>8.1} us\n"
    ));
    out.push_str(&format!(
        "  no safe copy:   sender blocked {bb:>8.1} us, delivery complete {bt:>8.1} us\n"
    ));

    out.push_str("\n== A5: an interrupt per message vs polling (16 B transfers) ==\n");
    let (polling, interrupts) = interrupt_per_message();
    out.push_str(&format!(
        "  polling protocol:        {polling:>7.2} us one-way\n"
    ));
    out.push_str(&format!(
        "  notification per packet: {interrupts:>7.2} us one-way (signal delivery on the path)\n"
    ));

    out.push_str("\n== A6: zero-copy rendezvous vs chunked one-copy (3 KB NX message) ==\n");
    for (allowed, latency_us) in zero_copy_on_off() {
        out.push_str(&format!(
            "  zero-copy {allowed:<5}  ->  {latency_us:>7.2} us one-way\n"
        ));
    }

    out.push_str("\n== A7: credit-return batching (one-way 128 B stream) ==\n");
    for (batch, rate) in credit_batch_sweep() {
        out.push_str(&format!("  batch {batch:>2}  ->  {rate:>9.0} messages/s\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_combine_timeout_raises_small_message_latency() {
        let sweep = combine_timeout_sweep();
        assert!(sweep.windows(2).all(|w| w[1].1 >= w[0].1), "{sweep:?}");
        // The sweep spans several microseconds of the latency budget.
        assert!(sweep.last().unwrap().1 - sweep[0].1 > 2.0);
    }

    #[test]
    fn combining_collapses_word_stores_into_one_packet() {
        let [(_, _lat_on, pkts_on, bus_on), (_, _lat_off, pkts_off, bus_off)] = combining_on_off();
        assert_eq!(pkts_on, 1, "combining on: one packet");
        assert_eq!(pkts_off, 16, "combining off: a packet per word store");
        // The receive path does sixteen DMA transactions instead of one.
        assert!(
            bus_off > 1.8 * bus_on,
            "rx EISA busy without combining {bus_off:.1} us vs with {bus_on:.1} us"
        );
    }

    #[test]
    fn unaligned_buffers_pay_the_marshal_copy() {
        let (aligned, unaligned) = alignment_fallback();
        assert!(
            unaligned > aligned + 5.0,
            "unaligned {unaligned:.1} us should clearly exceed aligned {aligned:.1} us"
        );
    }

    #[test]
    fn optimistic_copy_unblocks_the_sender() {
        let ((opt_blocked, opt_total), (block_blocked, block_total)) =
            optimistic_copy_on_off(16 * 1024);
        // With the safe copy the sender resumes long before the slow
        // receiver arrives; without it the sender waits for the reply.
        assert!(
            opt_blocked < block_blocked / 2.0,
            "optimistic blocked {opt_blocked:.0} us vs blocking {block_blocked:.0} us"
        );
        // End-to-end completion is similar either way.
        let ratio = opt_total / block_total;
        assert!(
            (0.5..1.5).contains(&ratio),
            "totals {opt_total:.0} vs {block_total:.0}"
        );
    }

    #[test]
    fn interrupts_per_message_cost_an_order_of_magnitude() {
        let (polling, interrupts) = interrupt_per_message();
        assert!(
            interrupts > 3.0 * polling,
            "with interrupts {interrupts:.1} us vs polling {polling:.1} us"
        );
    }

    #[test]
    fn zero_copy_beats_chunked_fallback() {
        let sweep = zero_copy_on_off();
        let (zc, chunked) = (sweep[0].1, sweep[1].1);
        assert!(
            (zc - chunked).abs() > 5.0,
            "zero-copy {zc:.1} us vs chunked {chunked:.1} us should differ"
        );
    }

    #[test]
    fn credit_batching_reduces_control_traffic() {
        let sweep = credit_batch_sweep();
        // Throughput should not degrade with batching (fewer credit
        // writes on the receiver's critical path).
        assert!(sweep[2].1 >= sweep[0].1 * 0.95, "{sweep:?}");
    }
}
