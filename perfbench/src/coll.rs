//! `coll8x8`: the software barrier and the allreduce sweep (64 B to
//! 64 KiB, `SumI64`) with 64 ranks on the 8×8 mesh, one rank per node.
//!
//! Host cost here is the process model: 64 blocking simulation
//! processes hand the kernel token back and forth on every message, and
//! the mesh routes every hop. The seed draws the reduced values; every
//! rank checks its result against a sequential sum. Virtual time does
//! not depend on the values, so the timings and their digest are the
//! same for every seed.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_coll::{CollConfig, CollWorld, ReduceOp};
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_node::CacheMode;
use shrimp_sim::{Kernel, SplitMix64};

use crate::meter::Meter;
use crate::Fnv;

const WIDTH: usize = 8;
const HEIGHT: usize = 8;
/// Allreduce payloads swept, bytes (8-byte lanes).
pub const SIZES: [usize; 4] = [64, 1024, 8192, 65536];
const BARRIER_ROUNDS: u32 = 4;
const ALLREDUCE_ROUNDS: u32 = 1;

/// Generated inputs: every rank's operand for every size, and the
/// sequential sums the ranks must reach.
pub struct Inputs {
    /// `operands[size][rank]`.
    operands: Vec<Vec<Vec<u8>>>,
    expected: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let ranks = WIDTH * HEIGHT;
        let mut operands = Vec::new();
        let mut expected = Vec::new();
        for &bytes in &SIZES {
            let per_rank: Vec<Vec<u8>> = (0..ranks)
                .map(|rank| {
                    let mut rng = SplitMix64::new(seed ^ ((rank as u64) << 32) ^ bytes as u64);
                    (0..bytes / 8)
                        .flat_map(|_| ((rng.next_u64() % 201) as i64 - 100).to_le_bytes())
                        .collect()
                })
                .collect();
            let mut sum = per_rank[0].clone();
            for operand in &per_rank[1..] {
                ReduceOp::SumI64.fold(&mut sum, operand);
            }
            operands.push(per_rank);
            expected.push(sum);
        }
        Inputs { operands, expected }
    }
}

/// Virtual results of one pass.
pub struct Outcome {
    /// Mean software barrier time, µs.
    pub barrier_us: f64,
    /// Time per allreduce at each of `SIZES`, µs (slowest rank).
    pub allreduce_us: Vec<f64>,
    pub digest: u64,
}

/// The mesh and a communicator with one rank per node, in node order.
fn setup(m: &mut Meter) -> (Kernel, Arc<ShrimpSystem>, Arc<CollWorld>) {
    let kernel = Kernel::new();
    let system = m.build(&kernel, SystemConfig::with_mesh(WIDTH, HEIGHT));
    let nodes: Vec<usize> = system.topology().nodes().map(|n| n.0).collect();
    let world = CollWorld::new(Arc::clone(&system), CollConfig::default(), nodes);
    (kernel, system, world)
}

/// Set up and tear down without running: a set-up time sample.
pub fn setup_only(m: &mut Meter) {
    let parts = setup(m);
    m.teardown(parts);
}

pub fn pass(m: &mut Meter, inputs: &Arc<Inputs>) -> Outcome {
    let (kernel, system, world) = setup(m);
    let n = world.len();
    // Virtual picoseconds: barrier span on rank 0, then per size the
    // start on rank 0 and the latest finish over all ranks.
    let barrier_ps = Arc::new(Mutex::new(0u64));
    let starts = Arc::new(Mutex::new(vec![0u64; SIZES.len()]));
    let finishes = Arc::new(Mutex::new(vec![0u64; SIZES.len()]));
    let mismatches = Arc::new(Mutex::new(0u64));
    for rank in 0..n {
        let world = Arc::clone(&world);
        let inputs = Arc::clone(inputs);
        let (barrier_ps, starts, finishes, mismatches) = (
            Arc::clone(&barrier_ps),
            Arc::clone(&starts),
            Arc::clone(&finishes),
            Arc::clone(&mismatches),
        );
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut comm = world.join(ctx, rank);
            comm.barrier(ctx).expect("warm-up barrier");
            let t0 = ctx.now();
            for _ in 0..BARRIER_ROUNDS {
                comm.barrier(ctx).expect("barrier");
            }
            if rank == 0 {
                *barrier_ps.lock() = ctx.now().since(t0).as_ps();
            }
            let p = comm.vmmc().proc_().clone();
            let buf = p.alloc(SIZES[SIZES.len() - 1], CacheMode::WriteBack);
            for (i, &bytes) in SIZES.iter().enumerate() {
                let operand = &inputs.operands[i][rank];
                comm.barrier(ctx).expect("pre-sweep barrier");
                if rank == 0 {
                    starts.lock()[i] = ctx.now().as_ps();
                }
                for _ in 0..ALLREDUCE_ROUNDS {
                    // The result overwrites the operand: refill so every
                    // round reduces the same inputs. Host-side pokes cost
                    // no virtual time.
                    p.poke(buf, operand).expect("fill operand");
                    comm.allreduce(ctx, buf, bytes / 8, ReduceOp::SumI64)
                        .expect("allreduce");
                }
                let done = ctx.now().as_ps();
                {
                    let mut fin = finishes.lock();
                    fin[i] = fin[i].max(done);
                }
                let got = p.peek(buf, bytes).expect("read result");
                *mismatches.lock() += (got != inputs.expected[i]) as u64;
                comm.barrier(ctx).expect("post-sweep barrier");
            }
        });
    }
    m.run(&kernel, &system);
    m.teardown((kernel, world, system));

    let wrong = *mismatches.lock();
    m.checks.ops((n * SIZES.len()) as u64, wrong);
    let barrier_us = *barrier_ps.lock() as f64 / 1e6 / BARRIER_ROUNDS as f64;
    let (starts, finishes) = (starts.lock(), finishes.lock());
    let allreduce_us: Vec<f64> = starts
        .iter()
        .zip(finishes.iter())
        .map(|(s, f)| (f - s) as f64 / 1e6 / ALLREDUCE_ROUNDS as f64)
        .collect();
    let mut h = Fnv::default();
    h.u64(barrier_us.to_bits());
    for (&bytes, us) in SIZES.iter().zip(&allreduce_us) {
        h.u64(bytes as u64);
        h.u64(us.to_bits());
    }
    m.checks.check(
        barrier_us > 0.0 && allreduce_us.iter().all(|&u| u > 0.0),
        || "coll8x8: an operation took no virtual time".to_string(),
    );
    Outcome {
        barrier_us,
        allreduce_us,
        digest: h.finish(),
    }
}
