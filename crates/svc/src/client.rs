//! The client library: consistent-hash routing, per-shard persistent
//! bindings, deadline-budgeted retries, and hedged reads.
//!
//! A client holds at most one RPC binding per shard, established
//! lazily against the shard's *current* routing epoch and reused for
//! every subsequent call — the persistent-channel fast path. Failure
//! handling is entirely timeout-driven, bounded two ways:
//!
//! * **Attempts** — at most
//!   [`max_attempts`](crate::SvcConfig::max_attempts) tries per
//!   operation ([`SvcError::Exhausted`] past that).
//! * **Time** — a per-request deadline budget of
//!   [`op_budget`](crate::SvcConfig::op_budget): every bind and reply
//!   wait is clamped to the budget's remainder and the operation fails
//!   with [`SvcError::DeadlineExceeded`] once it expires, so one
//!   request can never stall a caller across an entire failover storm.
//!
//! A failed attempt poisons its binding (the server may still answer
//! the abandoned sequence later), so the client drops it, sleeps a
//! *jittered* exponential backoff — doubling from
//! [`retry_base`](crate::SvcConfig::retry_base) up to
//! [`retry_cap`](crate::SvcConfig::retry_cap), scaled by a
//! deterministic per-client factor in `[0.75, 1.25)` so synchronized
//! clients fan out instead of thundering back in lockstep — and
//! re-binds against whatever route the cluster then advertises.
//!
//! With [`hedge_reads`](crate::SvcConfig::hedge_reads) on, a read that
//! outlives [`hedge_after`](crate::SvcConfig::hedge_after) *hedges*:
//! it is re-issued against the backup replica's read-only service
//! instead of waiting out the primary. Replica reads are safe because
//! the commit point of every acked write is the backup's ack — the
//! replica is never behind any acknowledged write, and a demoted
//! replica is fenced server-side before the demotion is acked.

use std::sync::Arc;

use shrimp_core::{ImportHandle, Vmmc};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, VAddr};
use shrimp_sim::{fnv1a, Ctx, SimDur, SimTime, SplitMix64};
use shrimp_srpc::{SrpcClient, Val};

use crate::cluster::SvcCluster;
use crate::read_through::{decode_slot, slot_of, SlotAnswer, SLOT_BYTES};
use crate::store::{Applied, Op, MAX_KEY, MAX_VAL};
use crate::SvcError;

struct Conn {
    epoch: u32,
    rpc: SrpcClient,
}

/// A cached import of one generation's read-through slot table.
struct RtConn {
    epoch: u32,
    region: ImportHandle,
}

/// Client-side resilience counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Reads hedged to the backup replica after the primary stalled.
    pub hedges: u64,
    /// Hedged reads the backup answered (the request succeeded without
    /// waiting out the primary's recovery).
    pub hedge_wins: u64,
    /// Reads answered by a one-sided fetch of the primary's slot table
    /// (no RPC round trip).
    pub fetch_hits: u64,
    /// Read-through attempts whose fetched slot did not answer (empty
    /// slot, hash collision, or a deposed epoch) — the read fell back
    /// to the RPC path.
    pub fetch_misses: u64,
    /// Read-through attempts refused by the transport (fetch NAK,
    /// daemon outage, stale import) — the read fell back to the RPC
    /// path and the cached import was dropped.
    pub fetch_errors: u64,
}

/// A KV client bound to one node. Not `Send`-shared: each client
/// process owns its own.
pub struct SvcClient {
    cluster: Arc<SvcCluster>,
    node: usize,
    tag: String,
    conns: Vec<Option<Conn>>,
    hedge_conns: Vec<Option<Conn>>,
    rt_conns: Vec<Option<RtConn>>,
    /// Lazily created fetch endpoint and its slot-sized landing buffer
    /// (read-through only).
    rt: Option<(Vmmc, VAddr)>,
    endpoints: u64,
    rng: SplitMix64,
    stats: ClientStats,
}

impl std::fmt::Debug for SvcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SvcClient")
            .field("node", &self.node)
            .field("tag", &self.tag)
            .finish_non_exhaustive()
    }
}

fn pad(bytes: &[u8], n: usize) -> Val {
    let mut v = bytes.to_vec();
    v.resize(n, 0);
    Val::Bytes(v)
}

fn as_u32(v: &Val) -> u32 {
    match v {
        Val::U32(x) => *x,
        _ => 0,
    }
}

fn as_bool(v: &Val) -> bool {
    matches!(v, Val::Bool(true))
}

fn earlier(a: SimTime, b: SimTime) -> SimTime {
    if a <= b {
        a
    } else {
        b
    }
}

impl SvcClient {
    /// A client living on node `node`; `tag` disambiguates endpoint
    /// names when a node hosts several clients.
    pub fn new(cluster: &Arc<SvcCluster>, node: usize, tag: impl Into<String>) -> SvcClient {
        let tag = tag.into();
        let shards = cluster.config().shards;
        SvcClient {
            cluster: Arc::clone(cluster),
            node,
            rng: SplitMix64::new(fnv1a(tag.as_bytes()) ^ node as u64),
            tag,
            conns: (0..shards).map(|_| None).collect(),
            hedge_conns: (0..shards).map(|_| None).collect(),
            rt_conns: (0..shards).map(|_| None).collect(),
            rt: None,
            endpoints: 0,
            stats: ClientStats::default(),
        }
    }

    /// The shard a key routes to.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.cluster.ring().shard_of(key)
    }

    /// Resilience counters accumulated so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Insert or overwrite `key`. On a replicated shard the returned
    /// ack means the write reached the backup.
    pub fn put(&mut self, ctx: &Ctx, key: &[u8], val: &[u8]) -> Result<Applied, SvcError> {
        check_len(key, MAX_KEY)?;
        check_len(val, MAX_VAL)?;
        let shard = self.shard_of(key);
        let outs = self.call(
            ctx,
            shard,
            "put",
            &[
                pad(key, MAX_KEY),
                Val::U32(key.len() as u32),
                pad(val, MAX_VAL),
                Val::U32(val.len() as u32),
            ],
        )?;
        Ok(Applied {
            seq: as_u32(&outs[0]) as u64,
            existed: as_bool(&outs[1]),
        })
    }

    /// Read `key`: `(entry sequence, value)` — `(0, None)` when never
    /// written, a tombstone's sequence with `None` when deleted.
    ///
    /// With [`read_through`](crate::SvcConfig::read_through) on, the
    /// read first tries a one-sided fetch of the primary's slot table
    /// — half the RPC's round trip, and the primary's CPU never runs —
    /// falling back to the RPC path on any miss or transport refusal.
    pub fn get(&mut self, ctx: &Ctx, key: &[u8]) -> Result<(u64, Option<Vec<u8>>), SvcError> {
        check_len(key, MAX_KEY)?;
        let shard = self.shard_of(key);
        if self.cluster.config().read_through {
            if let Some(hit) = self.try_read_through(ctx, shard, key) {
                return Ok(hit);
            }
        }
        let outs = self.call(
            ctx,
            shard,
            "get",
            &[pad(key, MAX_KEY), Val::U32(key.len() as u32)],
        )?;
        let seq = as_u32(&outs[0]) as u64;
        let found = as_bool(&outs[1]);
        let val = if found {
            let vlen = as_u32(&outs[3]) as usize;
            match &outs[2] {
                Val::Bytes(b) => Some(b[..vlen.min(b.len())].to_vec()),
                _ => Some(Vec::new()),
            }
        } else {
            None
        };
        Ok((seq, val))
    }

    /// Delete `key`, leaving a sequenced tombstone.
    pub fn del(&mut self, ctx: &Ctx, key: &[u8]) -> Result<Applied, SvcError> {
        check_len(key, MAX_KEY)?;
        let shard = self.shard_of(key);
        let outs = self.call(
            ctx,
            shard,
            "del",
            &[pad(key, MAX_KEY), Val::U32(key.len() as u32)],
        )?;
        Ok(Applied {
            seq: as_u32(&outs[0]) as u64,
            existed: as_bool(&outs[1]),
        })
    }

    /// Apply a pre-built mutation (the load engine's path).
    pub fn apply(&mut self, ctx: &Ctx, op: &Op) -> Result<Applied, SvcError> {
        match op {
            Op::Put { key, val } => self.put(ctx, key, val),
            Op::Del { key } => self.del(ctx, key),
        }
    }

    /// A fresh endpoint name (abandoned bindings are never reused).
    fn next_endpoint(&mut self) -> String {
        let name = format!("svc-cli-n{}-{}-{}", self.node, self.tag, self.endpoints);
        self.endpoints += 1;
        name
    }

    /// Sleep the jittered exponential backoff for a finished attempt
    /// (0-based), clamped so the sleep never overshoots the deadline
    /// by more than one step.
    fn backoff(&mut self, ctx: &Ctx, attempt: u32) {
        let cfg = self.cluster.config();
        let exp = cfg
            .retry_base
            .as_ps()
            .saturating_mul(1u64 << attempt.min(20));
        let capped = exp.min(cfg.retry_cap.as_ps());
        // Deterministic jitter in [0.75, 1.25): 768..1281 / 1024.
        let scale = 768 + self.rng.next_below(513);
        ctx.advance(SimDur::from_ps(capped / 1024 * scale));
    }

    /// One routed call under the deadline budget: bounded waits,
    /// re-bind on epoch change, jittered retries, and (for reads)
    /// hedging to the backup replica.
    fn call(
        &mut self,
        ctx: &Ctx,
        shard: usize,
        proc_name: &str,
        args: &[Val],
    ) -> Result<Vec<Val>, SvcError> {
        let cfg = self.cluster.config().clone();
        let deadline = ctx.now() + cfg.op_budget;
        let hedgeable = cfg.hedge_reads && proc_name == "get";
        let mut attempts = 0u32;
        while attempts < cfg.max_attempts {
            if ctx.now() >= deadline {
                return Err(SvcError::DeadlineExceeded { shard, attempts });
            }
            attempts += 1;
            let route = self.cluster.route(shard);
            let stale = match &self.conns[shard] {
                Some(c) => c.epoch != route.epoch,
                None => true,
            };
            if stale {
                self.conns[shard] = None;
                let name = self.next_endpoint();
                let vmmc = self.cluster.system().endpoint(self.node, name);
                let bound = SrpcClient::bind_deadline(
                    vmmc,
                    ctx,
                    self.cluster.directory(),
                    &SvcCluster::service(shard, route.epoch),
                    self.cluster.iface(),
                    earlier(ctx.now() + cfg.bind_timeout, deadline),
                );
                match bound {
                    Ok(rpc) => {
                        self.conns[shard] = Some(Conn {
                            epoch: route.epoch,
                            rpc,
                        });
                    }
                    Err(e) => {
                        let e = SvcError::from(e);
                        if !e.is_retryable() {
                            return Err(e);
                        }
                        self.backoff(ctx, attempts - 1);
                        continue;
                    }
                }
            }
            // A hedging-enabled read gives the primary only
            // `hedge_after` before trying the replica.
            let wait = if hedgeable {
                cfg.hedge_after
            } else {
                cfg.op_timeout
            };
            let Some(conn) = self.conns[shard].as_mut() else {
                continue;
            };
            match conn
                .rpc
                .call_deadline(ctx, proc_name, args, earlier(ctx.now() + wait, deadline))
            {
                Ok(outs) => return Ok(outs),
                Err(e) => {
                    let e = SvcError::from(e);
                    if !e.is_retryable() {
                        return Err(e);
                    }
                    // Timed-out bindings are poisoned; drop, back off
                    // past a watchdog poll, and re-route.
                    self.conns[shard] = None;
                    if hedgeable && e.is_timeout() {
                        if let Some(outs) = self.try_hedge(ctx, shard, args, deadline) {
                            return Ok(outs);
                        }
                    }
                    self.backoff(ctx, attempts - 1);
                }
            }
        }
        Err(SvcError::Exhausted {
            shard,
            attempts: cfg.max_attempts,
        })
    }

    /// One hedged read against the backup replica's read-only service.
    /// Best-effort: any failure just falls back to the primary retry
    /// loop.
    fn try_hedge(
        &mut self,
        ctx: &Ctx,
        shard: usize,
        args: &[Val],
        deadline: SimTime,
    ) -> Option<Vec<Val>> {
        let cfg = self.cluster.config().clone();
        let route = self.cluster.route(shard);
        route.backup?;
        if ctx.now() >= deadline {
            return None;
        }
        self.stats.hedges += 1;
        let stale = match &self.hedge_conns[shard] {
            Some(c) => c.epoch != route.epoch,
            None => true,
        };
        if stale {
            self.hedge_conns[shard] = None;
            let name = self.next_endpoint();
            let vmmc = self.cluster.system().endpoint(self.node, name);
            let rpc = SrpcClient::bind_deadline(
                vmmc,
                ctx,
                self.cluster.directory(),
                &SvcCluster::hedge_service(shard, route.epoch),
                self.cluster.iface(),
                earlier(ctx.now() + cfg.bind_timeout, deadline),
            )
            .ok()?;
            self.hedge_conns[shard] = Some(Conn {
                epoch: route.epoch,
                rpc,
            });
        }
        let conn = self.hedge_conns[shard].as_mut()?;
        match conn.rpc.call_deadline(
            ctx,
            "get",
            args,
            earlier(ctx.now() + cfg.op_timeout, deadline),
        ) {
            Ok(outs) => {
                self.stats.hedge_wins += 1;
                Some(outs)
            }
            Err(_) => {
                self.hedge_conns[shard] = None;
                None
            }
        }
    }

    /// One zero-copy read attempt: fetch the key's slot from the
    /// primary's exported table and answer iff the slot publishes this
    /// key under the current routing epoch. `None` means "use the RPC
    /// path" — an empty or colliding slot, a deposed epoch, a table
    /// not yet exported, or a transport refusal.
    fn try_read_through(
        &mut self,
        ctx: &Ctx,
        shard: usize,
        key: &[u8],
    ) -> Option<(u64, Option<Vec<u8>>)> {
        let route = self.cluster.route(shard);
        let stale = match &self.rt_conns[shard] {
            Some(c) => c.epoch != route.epoch,
            None => true,
        };
        if stale {
            self.rt_conns[shard] = None;
            // The generation's exporter may not have published yet —
            // plain miss, the RPC path is always available.
            let (node, name) = self.cluster.rt_pub(shard, route.epoch)?;
            if self.rt.is_none() {
                let ep = format!("svc-rt-n{}-{}", self.node, self.tag);
                let vmmc = self.cluster.system().endpoint(self.node, ep);
                let dst = vmmc.proc_().alloc(SLOT_BYTES, CacheMode::WriteBack);
                self.rt = Some((vmmc, dst));
            }
            let (vmmc, _) = self.rt.as_ref().expect("just created");
            match vmmc.import(ctx, NodeId(node), name) {
                Ok(region) => {
                    self.rt_conns[shard] = Some(RtConn {
                        epoch: route.epoch,
                        region,
                    });
                }
                Err(_) => {
                    self.stats.fetch_errors += 1;
                    return None;
                }
            }
        }
        let fetched = {
            let conn = self.rt_conns[shard].as_ref()?;
            let (vmmc, dst) = self.rt.as_ref()?;
            let off = slot_of(key) * SLOT_BYTES;
            vmmc.fetch(ctx, *dst, &conn.region, off, SLOT_BYTES)
                .map(|()| vmmc.proc_().peek(*dst, SLOT_BYTES).expect("dst is mapped"))
        };
        match fetched {
            Ok(raw) => match decode_slot(&raw, route.epoch, key) {
                SlotAnswer::Hit(seq, val) => {
                    self.stats.fetch_hits += 1;
                    Some((seq, val))
                }
                SlotAnswer::Miss => {
                    self.stats.fetch_misses += 1;
                    None
                }
            },
            Err(_) => {
                // NAK, daemon outage, or a stale import (the exporting
                // daemon died): drop the binding and use the RPC path,
                // whose retry loop owns recovery.
                self.stats.fetch_errors += 1;
                self.rt_conns[shard] = None;
                None
            }
        }
    }
}

fn check_len(bytes: &[u8], limit: usize) -> Result<(), SvcError> {
    if bytes.len() > limit {
        return Err(SvcError::TooLarge {
            len: bytes.len(),
            limit,
        });
    }
    Ok(())
}
