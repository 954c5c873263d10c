//! Zero-copy read-through: serving cache-resident `get`s with a
//! one-sided remote fetch instead of an RPC round trip.
//!
//! When [`read_through`](crate::SvcConfig::read_through) is on, every
//! primary generation exports a fixed table of *value slots* with the
//! read-permission bit set. A slot is the publication of one key's
//! latest entry:
//!
//! ```text
//! [epoch u32][seq u32][klen u32][vlen u32][key 32][val 64]   112 B
//! ```
//!
//! Keys map to slots by `fnv1a(key) % RT_SLOTS`; a colliding key
//! simply overwrites the slot, so a fetch can *miss* (the slot holds a
//! different key) — the client then falls back to the SRPC `get`. The
//! `vlen` field doubles as the slot's validity tag:
//! [`VLEN_EMPTY`] marks a never-written slot and [`VLEN_TOMB`] a
//! deleted key (the fetch is still a *hit*: the deletion is the
//! answer).
//!
//! The primary updates the slot inside the store lock, before the
//! mutation's commit point (the backup's ack), so the table is never
//! behind any acknowledged write of its epoch. Every slot carries the
//! generation's routing epoch; a client validates epoch *and* key
//! after the fetch and falls back to RPC on any mismatch, so deposed
//! generations and hash collisions are indistinguishable from a plain
//! cache miss — never a wrong answer.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::ExportOpts;
use shrimp_node::{CacheMode, UserProc, VAddr};
use shrimp_sim::{fnv1a, RetryPolicy, SimHandle};

use crate::cluster::SvcCluster;
use crate::store::{ShardStore, MAX_KEY, MAX_VAL};

/// Slots per shard table. Collisions only cost a fallback RPC, so this
/// trades export size against hit rate for hot keysets.
pub(crate) const RT_SLOTS: usize = 256;

/// One slot: header, fixed key field, fixed value field.
pub(crate) const SLOT_HDR: usize = 16;
/// Whole slot size — a multiple of the word size so slot offsets meet
/// the fetch engine's alignment restriction.
pub(crate) const SLOT_BYTES: usize = SLOT_HDR + MAX_KEY + MAX_VAL;

/// `vlen` tag: the slot has never held a key.
pub(crate) const VLEN_EMPTY: u32 = u32::MAX;
/// `vlen` tag: the slot's key is deleted (a sequenced tombstone).
pub(crate) const VLEN_TOMB: u32 = u32::MAX - 1;

/// The slot a key publishes to.
pub(crate) fn slot_of(key: &[u8]) -> usize {
    (fnv1a(key) % RT_SLOTS as u64) as usize
}

/// Encode one slot image.
pub(crate) fn encode_slot(epoch: u32, seq: u32, key: &[u8], val: Option<&[u8]>) -> Vec<u8> {
    debug_assert!(key.len() <= MAX_KEY);
    let mut out = vec![0u8; SLOT_BYTES];
    out[..4].copy_from_slice(&epoch.to_le_bytes());
    out[4..8].copy_from_slice(&seq.to_le_bytes());
    out[8..12].copy_from_slice(&(key.len() as u32).to_le_bytes());
    let vlen = match val {
        Some(v) => {
            debug_assert!(v.len() <= MAX_VAL);
            out[SLOT_HDR + MAX_KEY..SLOT_HDR + MAX_KEY + v.len()].copy_from_slice(v);
            v.len() as u32
        }
        None => VLEN_TOMB,
    };
    out[12..16].copy_from_slice(&vlen.to_le_bytes());
    out[SLOT_HDR..SLOT_HDR + key.len()].copy_from_slice(key);
    out
}

/// What one fetched slot says about the requested key under the
/// requested epoch.
pub(crate) enum SlotAnswer {
    /// The slot publishes this key at this epoch: the entry's sequence
    /// and value (`None` = deleted).
    Hit(u64, Option<Vec<u8>>),
    /// Empty, a different key (collision), or a different epoch — fall
    /// back to the RPC path.
    Miss,
}

/// Decode a fetched slot against the key and epoch the client asked
/// about. Anything malformed is a miss: the fallback RPC is always
/// correct.
pub(crate) fn decode_slot(raw: &[u8], epoch: u32, key: &[u8]) -> SlotAnswer {
    if raw.len() < SLOT_BYTES {
        return SlotAnswer::Miss;
    }
    let slot_epoch = u32::from_le_bytes(raw[..4].try_into().expect("sized"));
    let seq = u32::from_le_bytes(raw[4..8].try_into().expect("sized"));
    let klen = u32::from_le_bytes(raw[8..12].try_into().expect("sized")) as usize;
    let vlen = u32::from_le_bytes(raw[12..16].try_into().expect("sized"));
    if slot_epoch != epoch || vlen == VLEN_EMPTY || klen > MAX_KEY {
        return SlotAnswer::Miss;
    }
    if raw[SLOT_HDR..SLOT_HDR + klen] != *key || klen != key.len() {
        return SlotAnswer::Miss;
    }
    if vlen == VLEN_TOMB {
        return SlotAnswer::Hit(seq as u64, None);
    }
    let vlen = vlen as usize;
    if vlen > MAX_VAL {
        return SlotAnswer::Miss;
    }
    SlotAnswer::Hit(
        seq as u64,
        Some(raw[SLOT_HDR + MAX_KEY..SLOT_HDR + MAX_KEY + vlen].to_vec()),
    )
}

/// The writable side of one generation's slot table: a clone of the
/// exporting process (threads share the address space) plus the
/// table's base. Mutations poke slots while holding the store lock, so
/// slot updates are ordered exactly like the store's sequence.
pub(crate) struct RtRegion {
    /// The routing epoch whose mutations this table publishes.
    pub(crate) epoch: u32,
    proc_: UserProc,
    base: VAddr,
}

impl std::fmt::Debug for RtRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtRegion")
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl RtRegion {
    /// Publish `key`'s latest entry (`None` = tombstone) to its slot.
    /// The local slot store is not a timed DMA — it is the primary
    /// writing its own exported memory, so it carries no virtual-time
    /// cost beyond the mutation that triggered it.
    pub(crate) fn write_slot(&self, key: &[u8], seq: u64, val: Option<&[u8]>) {
        let img = encode_slot(self.epoch, seq as u32, key, val);
        let va = self.base.add(slot_of(key) * SLOT_BYTES);
        self.proc_.poke(va, &img).expect("the slot table is mapped");
    }

    /// Mark every slot empty (fresh tables must not decode as
    /// publishing the zero key under epoch 0).
    fn clear_all(&self) {
        let mut img = vec![0u8; SLOT_BYTES];
        img[..4].copy_from_slice(&self.epoch.to_le_bytes());
        img[12..16].copy_from_slice(&VLEN_EMPTY.to_le_bytes());
        for s in 0..RT_SLOTS {
            self.proc_
                .poke(self.base.add(s * SLOT_BYTES), &img)
                .expect("the slot table is mapped");
        }
    }
}

/// Spawn the slot-table exporter for one primary generation: allocate
/// and export the table fetchable, seed it from the store, install the
/// write handle for the mutation path, and publish the buffer name for
/// clients — then exit (the export outlives the process).
pub(crate) fn spawn_rt_exporter(
    cluster: &Arc<SvcCluster>,
    h: &SimHandle,
    shard: usize,
    epoch: u32,
    node: usize,
    store: Arc<Mutex<ShardStore>>,
) {
    let cluster = Arc::clone(cluster);
    let name = format!("svc-rt-s{shard}-e{epoch}");
    h.spawn(name.clone(), move |ctx| {
        let vmmc = cluster.system().endpoint(node, name);
        let total = RT_SLOTS * SLOT_BYTES;
        let base = vmmc.proc_().alloc(total, CacheMode::WriteBack);
        let region = RtRegion {
            epoch,
            proc_: vmmc.proc_().clone(),
            base,
        };
        region.clear_all();
        let opts = ExportOpts {
            read: true,
            ..Default::default()
        };
        let Ok(bufname) = vmmc.export_retry(ctx, base, total, opts, RetryPolicy::bootstrap())
        else {
            // The daemon never came back up within the bootstrap
            // budget; this generation serves without read-through.
            return;
        };
        // Seed and install atomically against mutations: both under
        // the store lock, the same lock the mutation path pokes under.
        {
            let g = store.lock();
            for (key, seq, val) in g.entries() {
                region.write_slot(&key, seq, val.as_deref());
            }
            cluster.install_rt(shard, region);
        }
        cluster.set_rt_pub(shard, epoch, node, bufname);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip_and_validation() {
        assert_eq!(SLOT_BYTES % 4, 0, "slot offsets must stay word-aligned");
        let raw = encode_slot(3, 41, b"alpha", Some(b"value-bytes"));
        match decode_slot(&raw, 3, b"alpha") {
            SlotAnswer::Hit(seq, Some(v)) => {
                assert_eq!(seq, 41);
                assert_eq!(v, b"value-bytes");
            }
            _ => panic!("expected a hit"),
        }
        // Wrong epoch, wrong key, and a key prefix are all misses.
        assert!(matches!(decode_slot(&raw, 4, b"alpha"), SlotAnswer::Miss));
        assert!(matches!(decode_slot(&raw, 3, b"beta!"), SlotAnswer::Miss));
        assert!(matches!(decode_slot(&raw, 3, b"alph"), SlotAnswer::Miss));

        let tomb = encode_slot(3, 42, b"alpha", None);
        assert!(matches!(
            decode_slot(&tomb, 3, b"alpha"),
            SlotAnswer::Hit(42, None)
        ));

        let mut empty = vec![0u8; SLOT_BYTES];
        empty[12..16].copy_from_slice(&VLEN_EMPTY.to_le_bytes());
        assert!(matches!(decode_slot(&empty, 0, b""), SlotAnswer::Miss));
    }
}
