//! The communicator: persistent channel geometry and the chunk
//! primitives every collective is built from.
//!
//! At communicator creation each rank exports one *channel region* per
//! peer in its [`peer_set`](crate::geometry::peer_set) and imports the
//! matching regions its peers exported for it. All mappings are created
//! once and reused for the life of the communicator — a collective call
//! performs **zero** export/import traffic, only deliberate-update
//! sends into already-mapped memory (the design point the paper's
//! library protocols argue for).
//!
//! ## Channel protocol
//!
//! A channel `s → r` is one region exported by `r`, written only by
//! `s`:
//!
//! ```text
//! | slot 0 payload | … | slot S-1 payload | flag[0..S] | ack |
//! ```
//!
//! * **Flag-after-data**: the sender deliberate-updates the payload
//!   into slot `(seq-1) % S`, then sends the 4-byte flag word `= seq`.
//!   VMMC's in-order delivery guarantees the flag lands after the data,
//!   so the receiver polls one word.
//! * **Ack / flow control**: the `ack` word in region `s → r` is
//!   written by `s` and carries the highest `seq` that `s` has
//!   *consumed* from the reverse channel `r → s`. A sender of `seq`
//!   waits until `ack ≥ seq - S` before overwriting a slot, so `S = 2`
//!   slots double-buffer: the transfer of chunk `k+1` overlaps the
//!   receiver's local work (copy or reduction) on chunk `k`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, ExportOpts, ImportHandle, ShrimpSystem, Vmmc, VmmcError};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, UserProc, VAddr};
use shrimp_sim::{Ctx, Gate, RetryPolicy, SimDur};

use crate::geometry::{peer_set, RingOrder};
use crate::hw::{CollImpl, HwColl, HwGroupCache};

/// Tuning knobs for a communicator.
#[derive(Debug, Clone)]
pub struct CollConfig {
    /// Payload bytes per pipeline chunk (word multiple).
    pub chunk_bytes: usize,
    /// Pipeline depth per channel (2 = double buffering).
    pub slots: usize,
    /// All-pairs channels are built when `n ≤ flat_limit`, enabling the
    /// flat broadcast/reduce and pairwise reduce-scatter variants.
    pub flat_limit: usize,
    /// Spin polls before blocking in flag/ack waits.
    pub poll_budget: usize,
    /// Which engine executes collectives (see [`CollImpl`]).
    pub impl_: CollImpl,
}

impl Default for CollConfig {
    fn default() -> CollConfig {
        CollConfig {
            chunk_bytes: 2048,
            slots: 2,
            flat_limit: 16,
            poll_budget: 64,
            impl_: CollImpl::Software,
        }
    }
}

/// Collective-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollError {
    /// An underlying VMMC operation failed.
    Vmmc(VmmcError),
    /// A bounded setup wait gave up.
    Timeout {
        /// The operation that timed out.
        op: &'static str,
        /// Total virtual time spent waiting.
        waited: SimDur,
    },
    /// The requested algorithm needs channels this communicator did not
    /// build (all-pairs variants above `flat_limit`).
    Unsupported(&'static str),
}

impl std::fmt::Display for CollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollError::Vmmc(e) => write!(f, "vmmc: {e}"),
            CollError::Timeout { op, waited } => write!(f, "{op} timed out after {waited}"),
            CollError::Unsupported(what) => write!(f, "algorithm unavailable: {what}"),
        }
    }
}

impl std::error::Error for CollError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CollError::Vmmc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmmcError> for CollError {
    fn from(e: VmmcError) -> Self {
        CollError::Vmmc(e)
    }
}

impl From<shrimp_node::MemFault> for CollError {
    fn from(e: shrimp_node::MemFault) -> Self {
        CollError::Vmmc(VmmcError::from(e))
    }
}

/// Region layout helper.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChannelLayout {
    pub chunk: usize,
    pub slots: usize,
}

impl ChannelLayout {
    pub fn slot_off(&self, slot: usize) -> usize {
        slot * self.chunk
    }
    pub fn flag_off(&self, slot: usize) -> usize {
        self.slots * self.chunk + 4 * slot
    }
    pub fn ack_off(&self) -> usize {
        self.slots * self.chunk + 4 * self.slots
    }
    pub fn total(&self) -> usize {
        self.ack_off() + 4
    }
}

/// Both directions of the persistent channel pair with one peer.
pub(crate) struct Channel {
    /// Local region written by the peer (their payloads, flags, and the
    /// ack word for *our* sends to them).
    pub in_base: VAddr,
    /// Import of the peer's region for us (we write payloads, flags,
    /// and the ack word for *their* sends to us).
    pub out: ImportHandle,
    /// Word-aligned bounce buffer for unaligned chunk sources.
    pub staging: VAddr,
    /// 4-byte word staged for flag/ack sends.
    pub ctl_word: VAddr,
    /// Next sequence number we send.
    pub next_send: u32,
    /// Next sequence number we expect to receive.
    pub next_recv: u32,
}

/// Sequence comparison with wraparound (`a ≥ b`).
pub(crate) fn seq_ge(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 >= 0
}

#[derive(Default)]
struct Published {
    /// Region exported by `to` for sender `from`, keyed `(from, to)`.
    names: HashMap<(usize, usize), BufferName>,
}

/// The communicator factory: one per job, shared by every rank's
/// process. Mirrors the NX loader's rendezvous role.
pub struct CollWorld {
    system: Arc<ShrimpSystem>,
    config: CollConfig,
    nodes: Vec<usize>,
    published: Mutex<Published>,
    joined: AtomicUsize,
    ready: Gate,
    /// Hardware spanning-tree cache shared by every rank (one tree per
    /// root node).
    hw_groups: HwGroupCache,
}

impl std::fmt::Debug for CollWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollWorld")
            .field("ranks", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

impl CollWorld {
    /// Create a world with one rank per entry of `nodes` (the node index
    /// each rank runs on).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, names an out-of-range node, or the
    /// configuration is malformed (chunk not a word multiple, zero
    /// slots).
    pub fn new(system: Arc<ShrimpSystem>, config: CollConfig, nodes: Vec<usize>) -> Arc<CollWorld> {
        assert!(!nodes.is_empty(), "a communicator needs at least one rank");
        assert!(
            config.chunk_bytes >= 4 && config.chunk_bytes.is_multiple_of(4),
            "chunk_bytes must be a positive word multiple"
        );
        assert!(config.slots >= 1, "need at least one slot");
        for &n in &nodes {
            assert!(n < system.len(), "node {n} out of range");
        }
        Arc::new(CollWorld {
            system,
            config,
            nodes,
            published: Mutex::new(Published::default()),
            joined: AtomicUsize::new(0),
            ready: Gate::new(),
            hw_groups: HwGroupCache::default(),
        })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty world (never constructible).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node index hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.nodes[rank]
    }

    /// Infallible [`CollWorld::try_join`] with the bootstrap retry
    /// policy; creates a fresh process on the rank's node.
    ///
    /// # Panics
    ///
    /// Panics on setup failure.
    pub fn join(self: &Arc<Self>, ctx: &Ctx, rank: usize) -> CollComm {
        self.try_join(ctx, rank, RetryPolicy::bootstrap(), None)
            .expect("collective communicator setup")
    }

    /// Build rank `rank`'s communicator: export this rank's channel
    /// regions, rendezvous with every other rank, then import the
    /// peers' regions. `proc_` supplies an existing process whose
    /// address space the communicator should share (how NX layers its
    /// collectives over this crate); `None` creates a fresh process.
    ///
    /// # Errors
    ///
    /// [`CollError::Timeout`] if some rank never arrives within the
    /// policy's budget; mapping-establishment failures otherwise.
    ///
    /// # Panics
    ///
    /// Panics if called twice for the same rank or with an out-of-range
    /// rank (caller bugs, not runtime faults).
    pub fn try_join(
        self: &Arc<Self>,
        ctx: &Ctx,
        rank: usize,
        policy: RetryPolicy,
        proc_: Option<UserProc>,
    ) -> Result<CollComm, CollError> {
        assert!(rank < self.len(), "rank {rank} out of range");
        let node = self.node_of(rank);
        let vmmc = match proc_ {
            Some(p) => self.system.endpoint_on(node, p),
            None => self.system.endpoint(node, format!("coll-rank{rank}")),
        };
        let n = self.len();
        let me = rank;
        let topo = self.system.topology();
        let ring = RingOrder::new(topo.as_ref(), &self.nodes);
        let peers = peer_set(me, n, &ring, self.config.flat_limit);
        let layout = ChannelLayout {
            chunk: self.config.chunk_bytes,
            slots: self.config.slots,
        };

        // Phase 1: export one region per in-peer and publish the names.
        let mut in_bases: HashMap<usize, VAddr> = HashMap::new();
        for &peer in &peers {
            let base = vmmc.proc_().alloc(layout.total(), CacheMode::WriteBack);
            let name = vmmc
                .export_retry(ctx, base, layout.total(), ExportOpts::default(), policy)
                .map_err(|e| match e {
                    VmmcError::Timeout { waited, .. } => CollError::Timeout {
                        op: "channel export",
                        waited,
                    },
                    e => CollError::from(e),
                })?;
            self.published.lock().names.insert((peer, me), name);
            in_bases.insert(peer, base);
        }

        // Rendezvous, bounded like the NX loader's.
        if self.joined.fetch_add(1, Ordering::SeqCst) + 1 == n {
            self.ready.open(&ctx.handle());
        }
        if !self
            .ready
            .wait_deadline(ctx, ctx.now() + policy.total_budget())
        {
            return Err(CollError::Timeout {
                op: "communicator rendezvous",
                waited: policy.total_budget(),
            });
        }

        // Phase 2: import each peer's region for us.
        let mut channels: HashMap<usize, Channel> = HashMap::new();
        for &peer in &peers {
            let name = self.published.lock().names[&(me, peer)];
            let out = vmmc.import_retry(ctx, NodeId(self.node_of(peer)), name, policy)?;
            channels.insert(
                peer,
                Channel {
                    in_base: in_bases[&peer],
                    out,
                    staging: vmmc.proc_().alloc(layout.chunk, CacheMode::WriteBack),
                    ctl_word: vmmc.proc_().alloc(4, CacheMode::WriteBack),
                    next_send: 1,
                    next_recv: 1,
                },
            );
        }

        let hw = if self.config.impl_ == CollImpl::Hardware {
            HwColl::try_new(&self.system, &self.nodes, Arc::clone(&self.hw_groups))
        } else {
            None
        };

        Ok(CollComm {
            vmmc,
            rank: me,
            n,
            config: self.config.clone(),
            layout,
            ring,
            channels,
            has_flat: n <= self.config.flat_limit,
            scratch: None,
            hw,
        })
    }
}

/// One rank's collective communicator: the persistent geometry plus
/// the chunk engine. Created by [`CollWorld::try_join`]; all collective
/// operations live in [`crate::ops`].
pub struct CollComm {
    pub(crate) vmmc: Vmmc,
    pub(crate) rank: usize,
    pub(crate) n: usize,
    pub(crate) config: CollConfig,
    pub(crate) layout: ChannelLayout,
    pub(crate) ring: RingOrder,
    pub(crate) channels: HashMap<usize, Channel>,
    pub(crate) has_flat: bool,
    /// Lazily grown word-aligned buffer backing the value-based
    /// convenience calls (`allreduce_f64` etc.).
    pub(crate) scratch: Option<(VAddr, usize)>,
    /// The in-network engine handle when [`CollImpl::Hardware`] is
    /// selected and the rank layout supports it.
    pub(crate) hw: Option<HwColl>,
}

impl std::fmt::Debug for CollComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollComm")
            .field("rank", &self.rank)
            .field("n", &self.n)
            .field("channels", &self.channels.len())
            .finish_non_exhaustive()
    }
}

impl CollComm {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a single-rank communicator (trivially never: `new`
    /// accepts one rank, where every collective is a no-op).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The underlying VMMC endpoint (shared address space).
    pub fn vmmc(&self) -> &Vmmc {
        &self.vmmc
    }

    /// Whether all-pairs channels exist (flat/pairwise variants work).
    pub fn has_flat_channels(&self) -> bool {
        self.has_flat
    }

    /// Payload bytes per pipeline chunk.
    pub fn chunk_bytes(&self) -> usize {
        self.layout.chunk
    }

    /// Ranks in mesh snake order (`ring()[p]` = rank at position `p`).
    pub fn ring(&self) -> &[usize] {
        &self.ring.ring
    }

    fn chan(&mut self, peer: usize) -> &mut Channel {
        self.channels
            .get_mut(&peer)
            .unwrap_or_else(|| panic!("no channel to rank {peer}"))
    }

    /// Send one chunk (`len ≤ chunk_bytes`, may be 0 for a pure flag)
    /// to `peer`: wait for slot credit, deliberate-update the payload,
    /// then the flag word.
    pub(crate) fn send_chunk(
        &mut self,
        ctx: &Ctx,
        peer: usize,
        src: VAddr,
        len: usize,
    ) -> Result<(), CollError> {
        debug_assert!(len <= self.layout.chunk);
        let layout = self.layout;
        let slots = layout.slots as u32;
        let poll = self.config.poll_budget;
        let ack_va = {
            let ch = self.chan(peer);
            ch.in_base.add(layout.ack_off())
        };
        let seq = self.chan(peer).next_send;
        // Flow control: never overwrite a slot the peer has not
        // consumed. The peer's acks for our sends arrive in *our* local
        // region (written by the peer).
        if seq_ge(seq, slots.wrapping_add(1)) {
            let need = seq.wrapping_sub(slots);
            self.vmmc.wait_u32(ctx, ack_va, poll, |v| seq_ge(v, need))?;
        }
        let slot = ((seq - 1) as usize) % layout.slots;
        let padded = (len + 3) & !3;
        let (src_va, staging, ctl) = {
            let ch = self.chan(peer);
            (src, ch.staging, ch.ctl_word)
        };
        if padded > 0 {
            let aligned = src_va.offset() % 4 == 0;
            let from = if aligned {
                src_va
            } else {
                // Word-align through the bounce buffer (timed copy).
                self.vmmc.proc_().copy(ctx, src_va, staging, len)?;
                staging
            };
            let out = &self.channels[&peer].out;
            self.vmmc
                .send(ctx, from, out, layout.slot_off(slot), padded)?;
        }
        // Flag after data: in-order delivery makes this the completion.
        self.vmmc.proc_().write_u32(ctx, ctl, seq)?;
        let out = &self.channels[&peer].out;
        self.vmmc.send(ctx, ctl, out, layout.flag_off(slot), 4)?;
        self.chan(peer).next_send = seq.wrapping_add(1);
        Ok(())
    }

    /// Receive one chunk from `peer`, handing the landed slot to
    /// `consume(slot_va)` before acknowledging it. `consume` copies or
    /// reduces out of the slot; the ack is only sent afterwards, so the
    /// sender can never overwrite data still being consumed.
    pub(crate) fn recv_chunk_with(
        &mut self,
        ctx: &Ctx,
        peer: usize,
        consume: impl FnOnce(&mut Self, &Ctx, VAddr) -> Result<(), CollError>,
    ) -> Result<(), CollError> {
        let layout = self.layout;
        let poll = self.config.poll_budget;
        let (seq, in_base, ctl) = {
            let ch = self.chan(peer);
            (ch.next_recv, ch.in_base, ch.ctl_word)
        };
        let slot = ((seq - 1) as usize) % layout.slots;
        let flag_va = in_base.add(layout.flag_off(slot));
        self.vmmc.wait_u32(ctx, flag_va, poll, |v| seq_ge(v, seq))?;
        consume(self, ctx, in_base.add(layout.slot_off(slot)))?;
        // Ack through the reverse channel's region on the peer.
        self.vmmc.proc_().write_u32(ctx, ctl, seq)?;
        let out = &self.channels[&peer].out;
        self.vmmc.send(ctx, ctl, out, layout.ack_off(), 4)?;
        self.chan(peer).next_recv = seq.wrapping_add(1);
        Ok(())
    }

    /// Receive one chunk from `peer` into `dst` (`len` bytes).
    pub(crate) fn recv_chunk(
        &mut self,
        ctx: &Ctx,
        peer: usize,
        dst: VAddr,
        len: usize,
    ) -> Result<(), CollError> {
        self.recv_chunk_with(ctx, peer, |comm, ctx, slot_va| {
            if len > 0 {
                comm.vmmc.proc_().copy(ctx, slot_va, dst, len)?;
            }
            Ok(())
        })
    }

    /// Grow-on-demand scratch buffer for the value-based calls.
    pub(crate) fn scratch(&mut self, bytes: usize) -> VAddr {
        match self.scratch {
            Some((va, cap)) if cap >= bytes => va,
            _ => {
                let cap = bytes.next_power_of_two().max(64);
                let va = self.vmmc.proc_().alloc(cap, CacheMode::WriteBack);
                self.scratch = Some((va, cap));
                va
            }
        }
    }
}
