//! The VMMC endpoint: the user-level API of virtual memory-mapped
//! communication.
//!
//! A [`Vmmc`] belongs to one user process. It provides the calls of the
//! VMMC model (paper §2):
//!
//! * **import-export mappings** — [`Vmmc::export`] /
//!   [`Vmmc::import`] / [`Vmmc::unexport`] / [`Vmmc::unimport`];
//! * **deliberate update** — [`Vmmc::send`], the blocking explicit
//!   transfer from any local memory into an imported receive buffer;
//! * **automatic update** — [`Vmmc::bind_au`] binds local pages to an
//!   imported buffer so ordinary stores propagate in hardware;
//! * **notifications** — per-buffer handlers with signal-like blocking
//!   semantics ([`Vmmc::wait_notification`], queued while blocked);
//! * **receive-side waiting** — there is *no receive operation* in VMMC;
//!   receivers check memory. [`Vmmc::wait_u32`] polls a flag and falls
//!   back to blocking, the polling/blocking switch of paper §6.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_mesh::NodeId;
use shrimp_nic::{DuRequest, FetchRequest, NakReason, OptEntry};
use shrimp_node::{CacheMode, UserProc, VAddr, PAGE_SIZE};
use shrimp_sim::{Ctx, ProcessId, SimHandle, SimTime};

use crate::daemon::{BufferName, ExportPerms, ExportRecord, MappingInfo};
use crate::error::VmmcError;
use crate::system::ShrimpSystem;

/// A notification delivered to an exported buffer's owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotifyEvent {
    /// The buffer whose pages received data.
    pub buffer: BufferName,
    /// When the triggering packet's DMA completed.
    pub at: SimTime,
}

/// A user-level notification handler (paper §2.3). Runs in the receiving
/// process's context when notifications are consumed.
pub type NotifyHandler = Box<dyn FnMut(&Ctx, NotifyEvent) + Send>;

/// Options for [`Vmmc::export`].
#[derive(Default)]
pub struct ExportOpts {
    /// Import permissions.
    pub perms: ExportPerms,
    /// Optional notification handler; attaching one sets the
    /// receiver-specified interrupt flag on the buffer's pages.
    pub handler: Option<NotifyHandler>,
    /// Allow importers to *fetch* (one-sided remote read) from this
    /// buffer: programs the read-permission bit on every backing page.
    /// Off by default — a plain VMMC export stays write-only.
    pub read: bool,
}

impl std::fmt::Debug for ExportOpts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExportOpts")
            .field("perms", &self.perms)
            .field("handler", &self.handler.as_ref().map(|_| "<fn>"))
            .field("read", &self.read)
            .finish()
    }
}

/// A handle to an imported remote receive buffer. Cheap to clone; all
/// clones are invalidated together by [`Vmmc::unimport`].
#[derive(Debug, Clone)]
pub struct ImportHandle {
    info: Arc<MappingInfo>,
    alive: Arc<AtomicBool>,
}

impl ImportHandle {
    /// The exporting node.
    pub fn node(&self) -> NodeId {
        self.info.node
    }

    /// The exported buffer's name.
    pub fn name(&self) -> BufferName {
        self.info.name
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.info.len
    }

    /// True for a zero-length buffer.
    pub fn is_empty(&self) -> bool {
        self.info.len == 0
    }

    /// Destination physical byte address for a byte offset into the
    /// buffer.
    pub(crate) fn locate(&self, off: usize) -> u64 {
        let abs = self.info.first_offset + off;
        let page_idx = abs / PAGE_SIZE;
        let within = abs % PAGE_SIZE;
        self.info.ppages[page_idx] * PAGE_SIZE as u64 + within as u64
    }

    /// Bytes from `off` to the end of the destination physical page it
    /// falls in.
    pub(crate) fn bytes_to_page_end(&self, off: usize) -> usize {
        PAGE_SIZE - (self.info.first_offset + off) % PAGE_SIZE
    }

    pub(crate) fn info(&self) -> &MappingInfo {
        &self.info
    }
}

/// Tracks an in-flight non-blocking send
/// ([`Vmmc::send_nonblocking`]).
#[derive(Debug, Clone)]
pub struct SendHandle {
    outstanding: Arc<std::sync::atomic::AtomicUsize>,
}

impl SendHandle {
    /// True once the source buffer is reusable.
    pub fn is_complete(&self) -> bool {
        self.outstanding.load(Ordering::SeqCst) == 0
    }
}

/// An active automatic-update binding created by [`Vmmc::bind_au`].
#[derive(Debug)]
pub struct AuBinding {
    local_va: VAddr,
    pages: usize,
    local_ppages: Vec<u64>,
    local_vpages: Vec<u64>,
}

impl AuBinding {
    /// First bound local address.
    pub fn local_va(&self) -> VAddr {
        self.local_va
    }

    /// Number of bound pages.
    pub fn pages(&self) -> usize {
        self.pages
    }
}

struct EpState {
    activity_waiters: Vec<ProcessId>,
    notify_waiters: Vec<ProcessId>,
    notify_blocked: bool,
    pending_notifies: VecDeque<NotifyEvent>,
    handlers: HashMap<BufferName, NotifyHandler>,
    exports: HashMap<BufferName, (VAddr, usize, Arc<Vec<u64>>)>,
    ppage_to_buffer: HashMap<u64, BufferName>,
}

/// State shared between the owning process and the system's hook
/// closures (delivery, notification interrupts).
pub(crate) struct EndpointShared {
    handle: SimHandle,
    state: Mutex<EpState>,
}

impl EndpointShared {
    pub(crate) fn on_delivery(&self, _ppage: u64, _at: SimTime) {
        let waiters: Vec<ProcessId> = {
            let mut st = self.state.lock();
            st.activity_waiters.drain(..).collect()
        };
        for pid in waiters {
            self.handle.unpark(pid);
        }
    }

    pub(crate) fn on_notification(&self, ppage: u64) {
        let to_wake: Vec<ProcessId> = {
            let mut st = self.state.lock();
            let Some(&buffer) = st.ppage_to_buffer.get(&ppage) else {
                return;
            };
            // Notifications only take effect when a handler is attached
            // (paper §2.3).
            if !st.handlers.contains_key(&buffer) {
                return;
            }
            let at = self.handle.now();
            st.pending_notifies.push_back(NotifyEvent { buffer, at });
            if st.notify_blocked {
                Vec::new() // queued while blocked
            } else {
                st.notify_waiters.drain(..).collect()
            }
        };
        for pid in to_wake {
            self.handle.unpark(pid);
        }
    }
}

/// One process's VMMC endpoint. See the crate documentation for the API
/// overview and the crate examples for usage.
pub struct Vmmc {
    system: Arc<ShrimpSystem>,
    node_index: usize,
    proc_: UserProc,
    shared: Arc<EndpointShared>,
    /// Lazily allocated completion flag word for remote fetches, plus
    /// the count of fetch chunks issued so far (the value the reply
    /// engine deposits on each completion).
    fetch_flag: Mutex<Option<(VAddr, u32)>>,
}

impl std::fmt::Debug for Vmmc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vmmc")
            .field("node", &self.node_index)
            .field("proc", &self.proc_.name())
            .finish()
    }
}

impl Vmmc {
    pub(crate) fn new(system: Arc<ShrimpSystem>, node_index: usize, proc_: UserProc) -> Vmmc {
        let shared = Arc::new(EndpointShared {
            handle: system.sim().clone(),
            state: Mutex::new(EpState {
                activity_waiters: Vec::new(),
                notify_waiters: Vec::new(),
                notify_blocked: false,
                pending_notifies: VecDeque::new(),
                handlers: HashMap::new(),
                exports: HashMap::new(),
                ppage_to_buffer: HashMap::new(),
            }),
        });
        Vmmc {
            system,
            node_index,
            proc_,
            shared,
            fetch_flag: Mutex::new(None),
        }
    }

    /// The user process this endpoint belongs to (for memory operations).
    pub fn proc_(&self) -> &UserProc {
        &self.proc_
    }

    /// The node index this endpoint lives on.
    pub fn node_index(&self) -> usize {
        self.node_index
    }

    /// This node's mesh id.
    pub fn node_id(&self) -> NodeId {
        self.proc_.node().id()
    }

    /// The system this endpoint is part of.
    pub fn system(&self) -> &Arc<ShrimpSystem> {
        &self.system
    }

    /// The observability recorder attached to this endpoint's system,
    /// or `None` on the disabled fast path (one relaxed atomic load).
    /// User-level libraries use this to record [`shrimp_obs::Layer::User`]
    /// spans around their protocol phases.
    pub fn obs(&self) -> Option<Arc<shrimp_obs::Recorder>> {
        self.system.obs()
    }

    // ------------------------------------------------------------------
    // Import-export mappings
    // ------------------------------------------------------------------

    /// Export `[va, va+len)` as a receive buffer with the given options;
    /// returns the buffer name importers use. The local daemon pins the
    /// pages and enables them in the incoming page table.
    ///
    /// # Errors
    ///
    /// Fails if the range is not mapped writable in this process.
    pub fn export(
        &self,
        ctx: &Ctx,
        va: VAddr,
        len: usize,
        mut opts: ExportOpts,
    ) -> Result<BufferName, VmmcError> {
        self.export_once(ctx, va, len, &mut opts)
    }

    /// Like [`Vmmc::export`], but rides out daemon outages: on
    /// [`VmmcError::DaemonUnavailable`] the call backs off (exponentially,
    /// per `policy`) and retries until the daemon answers or the policy's
    /// attempts are exhausted. Other errors surface immediately.
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] once every attempt found the daemon down;
    /// otherwise as for [`Vmmc::export`].
    pub fn export_retry(
        &self,
        ctx: &Ctx,
        va: VAddr,
        len: usize,
        mut opts: ExportOpts,
        policy: shrimp_sim::RetryPolicy,
    ) -> Result<BufferName, VmmcError> {
        for attempt in 0..policy.attempts {
            match self.export_once(ctx, va, len, &mut opts) {
                Err(VmmcError::DaemonUnavailable { .. }) => {
                    ctx.advance(policy.timeout(attempt));
                }
                other => return other,
            }
        }
        Err(VmmcError::Timeout {
            op: "export",
            waited: policy.total_budget(),
        })
    }

    /// One export attempt. The handler is taken out of `opts` only once
    /// the daemon has registered the buffer, so a refused attempt can be
    /// retried with the same options.
    fn export_once(
        &self,
        ctx: &Ctx,
        va: VAddr,
        len: usize,
        opts: &mut ExportOpts,
    ) -> Result<BufferName, VmmcError> {
        ctx.advance(self.proc_.node().costs().os_export);
        let chunks = self.proc_.aspace().translate_range(va, len, true)?;
        // One page list, shared by the daemon record, the page registry,
        // and this endpoint's export table.
        let ppages: Arc<Vec<u64>> = Arc::new(chunks.iter().map(|(pa, _, _)| pa.page()).collect());
        let record = ExportRecord {
            ppages: Arc::clone(&ppages),
            first_offset: va.offset(),
            len,
            perms: opts.perms.clone(),
            read: opts.read,
        };
        let name = self
            .system
            .daemon(self.node_index)
            .register_export(record)?;
        self.system
            .registry
            .register_pages(self.node_index, &ppages, &self.shared);
        {
            let mut st = self.shared.state.lock();
            st.exports.insert(name, (va, len, Arc::clone(&ppages)));
            for &p in ppages.iter() {
                st.ppage_to_buffer.insert(p, name);
            }
            if let Some(h) = opts.handler.take() {
                st.handlers.insert(name, h);
            }
        }
        if self.shared.state.lock().handlers.contains_key(&name) {
            self.system
                .daemon(self.node_index)
                .set_export_interrupt(name, true)
                .expect("export just registered");
        }
        Ok(name)
    }

    /// Destroy an export. Blocks until all pending messages using the
    /// mapping have been delivered (paper §2.1), then disables the pages.
    ///
    /// # Errors
    ///
    /// Fails if `name` was not exported by this endpoint.
    pub fn unexport(&self, ctx: &Ctx, name: BufferName) -> Result<(), VmmcError> {
        self.drain(ctx);
        ctx.advance(self.proc_.node().costs().os_export);
        let pages = {
            let mut st = self.shared.state.lock();
            let (_va, _len, pages) = st.exports.remove(&name).ok_or(VmmcError::UnknownBuffer {
                node: self.node_id(),
                name: name.0,
            })?;
            for p in pages.iter() {
                st.ppage_to_buffer.remove(p);
            }
            st.handlers.remove(&name);
            pages
        };
        self.system.daemon(self.node_index).unregister_export(name);
        self.system
            .registry
            .unregister_pages(self.node_index, &pages);
        Ok(())
    }

    /// Import the buffer `name` exported on `node`.
    ///
    /// # Errors
    ///
    /// Fails if the buffer does not exist, permissions exclude this
    /// node, or the remote daemon is down
    /// ([`VmmcError::DaemonUnavailable`] — see [`Vmmc::import_retry`]).
    pub fn import(
        &self,
        ctx: &Ctx,
        node: NodeId,
        name: BufferName,
    ) -> Result<ImportHandle, VmmcError> {
        ctx.advance(self.proc_.node().costs().os_import);
        let info = self
            .system
            .daemon(node.0)
            .resolve_import(self.node_id(), name)?;
        Ok(ImportHandle {
            info: Arc::new(info),
            alive: Arc::new(AtomicBool::new(true)),
        })
    }

    /// Like [`Vmmc::import`], but rides out daemon outages: on
    /// [`VmmcError::DaemonUnavailable`] the call backs off (exponentially,
    /// per `policy`) and retries until the daemon answers or the policy's
    /// attempts are exhausted. Other errors surface immediately.
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] once every attempt found the daemon down;
    /// otherwise as for [`Vmmc::import`].
    pub fn import_retry(
        &self,
        ctx: &Ctx,
        node: NodeId,
        name: BufferName,
        policy: shrimp_sim::RetryPolicy,
    ) -> Result<ImportHandle, VmmcError> {
        for attempt in 0..policy.attempts {
            match self.import(ctx, node, name) {
                Err(VmmcError::DaemonUnavailable { .. }) => {
                    ctx.advance(policy.timeout(attempt));
                }
                other => return other,
            }
        }
        Err(VmmcError::Timeout {
            op: "import",
            waited: policy.total_budget(),
        })
    }

    /// Destroy an import mapping. Blocks until pending messages are
    /// delivered; afterwards every clone of the handle is dead.
    pub fn unimport(&self, ctx: &Ctx, handle: &ImportHandle) {
        self.drain(ctx);
        ctx.advance(self.proc_.node().costs().os_export);
        handle.alive.store(false, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Deliberate update
    // ------------------------------------------------------------------

    /// Blocking deliberate-update send: transfer `len` bytes from local
    /// `src` into the imported buffer at byte `dst_off`. Returns when the
    /// source buffer is reusable and every packet is ordered into the
    /// network (in-order delivery is then guaranteed; §2.2).
    ///
    /// # Errors
    ///
    /// * [`VmmcError::Misaligned`] unless source address, destination
    ///   offset, and length are word-aligned (the hardware restriction);
    /// * [`VmmcError::OutOfRange`] if the transfer exceeds the buffer;
    /// * [`VmmcError::StaleImport`] after unimport;
    /// * [`VmmcError::Fault`] if the source range is not readable.
    pub fn send(
        &self,
        ctx: &Ctx,
        src: VAddr,
        dst: &ImportHandle,
        dst_off: usize,
        len: usize,
    ) -> Result<(), VmmcError> {
        self.send_inner(ctx, src, dst, dst_off, len, false)
    }

    /// Like [`Vmmc::send`], also requesting a destination notification on
    /// the final packet (the sender-specified interrupt flag).
    ///
    /// # Errors
    ///
    /// As for [`Vmmc::send`].
    pub fn send_notify(
        &self,
        ctx: &Ctx,
        src: VAddr,
        dst: &ImportHandle,
        dst_off: usize,
        len: usize,
    ) -> Result<(), VmmcError> {
        self.send_inner(ctx, src, dst, dst_off, len, true)
    }

    /// The non-blocking deliberate-update send (paper §2.2 mentions it;
    /// the compatibility libraries use only the blocking form). All
    /// transfer chunks are initiated immediately and the call returns a
    /// [`SendHandle`]; complete it with [`Vmmc::send_wait`]. Until then
    /// the source buffer must not be modified.
    ///
    /// The in-order guarantee is weaker than the blocking send's: later
    /// transfers initiated *after this call returns* may interleave with
    /// this one's chunks in the outgoing FIFO, which is exactly the
    /// complication the paper alludes to. Chunks of a single
    /// non-blocking send remain in order with each other.
    ///
    /// # Errors
    ///
    /// As for [`Vmmc::send`].
    pub fn send_nonblocking(
        &self,
        ctx: &Ctx,
        src: VAddr,
        dst: &ImportHandle,
        dst_off: usize,
        len: usize,
    ) -> Result<SendHandle, VmmcError> {
        let t0 = ctx.now();
        let costs = self.proc_.node().costs().clone();
        ctx.advance(costs.lib_call);
        if !dst.alive.load(Ordering::SeqCst) {
            return Err(VmmcError::StaleImport);
        }
        if dst_off + len > dst.len() {
            return Err(VmmcError::OutOfRange {
                offset: dst_off,
                len,
                buffer_len: dst.len(),
            });
        }
        if len == 0 {
            return Ok(SendHandle {
                outstanding: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            });
        }
        if !src.0.is_multiple_of(4)
            || !(dst.info().first_offset + dst_off).is_multiple_of(4)
            || !len.is_multiple_of(4)
        {
            return Err(VmmcError::Misaligned);
        }
        self.proc_.aspace().translate_range(src, len, false)?;
        ctx.advance(costs.eisa_pio_access * 2);

        // Count chunks, then fire them all; each decrements on injection.
        let nic = self.system.nic(self.node_index);
        // The causal id is allocated at the send syscall; every chunk
        // of this transfer carries it.
        let msg = nic.alloc_msg();
        let mut chunks = Vec::new();
        let mut off = 0usize;
        while off < len {
            let cur = src.add(off);
            let (src_pa, _) = self.proc_.aspace().translate(cur, false)?;
            let n = (len - off)
                .min(PAGE_SIZE - cur.offset())
                .min(dst.bytes_to_page_end(dst_off + off));
            chunks.push(DuRequest {
                src: src_pa,
                dst_node: dst.node(),
                dst_paddr: dst.locate(dst_off + off),
                len: n,
                interrupt: false,
                msg,
            });
            off += n;
        }
        let outstanding = Arc::new(std::sync::atomic::AtomicUsize::new(chunks.len()));
        for req in chunks {
            let o = Arc::clone(&outstanding);
            let h = ctx.handle();
            let pid = ctx.pid();
            nic.du_transfer(req, move |_t| {
                o.fetch_sub(1, Ordering::SeqCst);
                h.unpark(pid);
            });
        }
        if let Some(rec) = self.system.obs() {
            rec.push(shrimp_obs::SpanRec {
                msg,
                node: self.node_index,
                layer: shrimp_obs::Layer::Endpoint,
                name: "send_nonblocking",
                start: t0,
                end: ctx.now(),
                bytes: len,
            });
        }
        Ok(SendHandle { outstanding })
    }

    /// Block until a non-blocking send's source buffer is reusable (all
    /// chunks handed to the network in order).
    pub fn send_wait(&self, ctx: &Ctx, handle: &SendHandle) {
        while handle.outstanding.load(Ordering::SeqCst) > 0 {
            ctx.park();
        }
    }

    fn send_inner(
        &self,
        ctx: &Ctx,
        src: VAddr,
        dst: &ImportHandle,
        dst_off: usize,
        len: usize,
        interrupt: bool,
    ) -> Result<(), VmmcError> {
        let t0 = ctx.now();
        let costs = self.proc_.node().costs().clone();
        ctx.advance(costs.lib_call);
        if !dst.alive.load(Ordering::SeqCst) {
            return Err(VmmcError::StaleImport);
        }
        if dst_off + len > dst.len() {
            return Err(VmmcError::OutOfRange {
                offset: dst_off,
                len,
                buffer_len: dst.len(),
            });
        }
        if len == 0 {
            return Ok(());
        }
        if !src.0.is_multiple_of(4)
            || !(dst.info().first_offset + dst_off).is_multiple_of(4)
            || !len.is_multiple_of(4)
        {
            return Err(VmmcError::Misaligned);
        }
        // Validate the whole source range up front (MMU protection).
        self.proc_.aspace().translate_range(src, len, false)?;

        // The two-access initiation sequence, decoded by the NIC on the
        // EISA bus.
        ctx.advance(costs.eisa_pio_access * 2);

        let nic = self.system.nic(self.node_index);
        // The causal id is allocated at the send syscall and carried by
        // every packet of the transfer (tentpole piece 1).
        let msg = nic.alloc_msg();
        let mut off = 0usize;
        while off < len {
            let cur = src.add(off);
            let (src_pa, _) = self.proc_.aspace().translate(cur, false)?;
            let src_run = PAGE_SIZE - cur.offset();
            let dst_run = dst.bytes_to_page_end(dst_off + off);
            let n = (len - off).min(src_run).min(dst_run);
            let req = DuRequest {
                src: src_pa,
                dst_node: dst.node(),
                dst_paddr: dst.locate(dst_off + off),
                len: n,
                interrupt: interrupt && off + n == len,
                msg,
            };
            let flag = Arc::new(AtomicBool::new(false));
            let f2 = Arc::clone(&flag);
            let h = ctx.handle();
            let pid = ctx.pid();
            nic.du_transfer(req, move |_t| {
                f2.store(true, Ordering::SeqCst);
                h.unpark(pid);
            });
            while !flag.load(Ordering::SeqCst) {
                ctx.park();
            }
            off += n;
        }
        if let Some(rec) = self.system.obs() {
            rec.push(shrimp_obs::SpanRec {
                msg,
                node: self.node_index,
                layer: shrimp_obs::Layer::Endpoint,
                name: "send",
                start: t0,
                end: ctx.now(),
                bytes: len,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Remote fetch (one-sided read)
    // ------------------------------------------------------------------

    /// Blocking one-sided remote read: fetch `len` bytes starting at
    /// byte `src_off` of the imported buffer into local memory at
    /// `dst`. The local NIC emits a fetch descriptor; the exporting
    /// NIC validates the pages against its incoming page table (the
    /// export must have been made with [`ExportOpts::read`]), DMAs the
    /// data out of remote memory and streams reply packets back that
    /// deposit directly into `dst` — the exporting *processor* never
    /// runs. Completion is a monotone flag word the reply engine
    /// bumps ([`Vmmc::fetch_completions`]).
    ///
    /// # Errors
    ///
    /// * [`VmmcError::Misaligned`] unless destination address, source
    ///   offset, and length are word-aligned (the hardware restriction,
    ///   shared with deliberate update);
    /// * [`VmmcError::OutOfRange`] if the read exceeds the buffer;
    /// * [`VmmcError::StaleImport`] after unimport;
    /// * [`VmmcError::Fault`] if `dst` is not mapped writable;
    /// * [`VmmcError::FetchDenied`] if a target page is receive-disabled
    ///   or exported without read permission (transient when an injected
    ///   violation froze the page — the OS repair re-enables it; see
    ///   [`Vmmc::fetch_retry`]);
    /// * [`VmmcError::FetchUnmapped`] if a target page has no incoming
    ///   page-table entry at all;
    /// * [`VmmcError::DaemonUnavailable`] while the exporting node's
    ///   daemon is down.
    pub fn fetch(
        &self,
        ctx: &Ctx,
        dst: VAddr,
        src: &ImportHandle,
        src_off: usize,
        len: usize,
    ) -> Result<(), VmmcError> {
        let t0 = ctx.now();
        let costs = self.proc_.node().costs().clone();
        ctx.advance(costs.lib_call + costs.fetch_issue);
        if !src.alive.load(Ordering::SeqCst) {
            return Err(VmmcError::StaleImport);
        }
        if src_off + len > src.len() {
            return Err(VmmcError::OutOfRange {
                offset: src_off,
                len,
                buffer_len: src.len(),
            });
        }
        if len == 0 {
            return Ok(());
        }
        if !dst.0.is_multiple_of(4)
            || !(src.info().first_offset + src_off).is_multiple_of(4)
            || !len.is_multiple_of(4)
        {
            return Err(VmmcError::Misaligned);
        }
        // Validate the whole local reply range up front (MMU protection).
        self.proc_.aspace().translate_range(dst, len, true)?;

        // The two-access initiation sequence presenting the descriptor.
        ctx.advance(costs.eisa_pio_access * 2);

        let nic = self.system.nic(self.node_index);
        // One causal id for the whole read, carried by the request and
        // every reply packet.
        let msg = nic.alloc_msg();
        let mut off = 0usize;
        while off < len {
            let cur = dst.add(off);
            let (dst_pa, _) = self.proc_.aspace().translate(cur, true)?;
            let dst_run = PAGE_SIZE - cur.offset();
            let src_run = src.bytes_to_page_end(src_off + off);
            let n = (len - off).min(dst_run).min(src_run);
            let req = FetchRequest {
                src_node: src.node(),
                src_paddr: src.locate(src_off + off),
                len: n,
                dst_paddr: dst_pa.0,
                msg,
            };
            let (flag_va, seq) = self.fetch_flag_slot();
            let result: Arc<Mutex<Option<Result<SimTime, NakReason>>>> = Arc::new(Mutex::new(None));
            let r2 = Arc::clone(&result);
            let h = ctx.handle();
            let pid = ctx.pid();
            let writer = self.proc_.clone();
            nic.fetch(req, move |res| {
                // The reply engine's final deposit bumps the completion
                // flag word; user code may poll it like any other flag.
                let _ = writer.poke(flag_va, &seq.to_le_bytes());
                *r2.lock() = Some(res);
                h.unpark(pid);
            });
            let res = loop {
                let taken = result.lock().take();
                match taken {
                    Some(r) => break r,
                    None => ctx.park(),
                }
            };
            match res {
                Ok(_) => {}
                Err(NakReason::Unmapped { ppage }) => {
                    return Err(VmmcError::FetchUnmapped {
                        node: src.node(),
                        ppage,
                    });
                }
                Err(NakReason::Denied { ppage }) => {
                    return Err(VmmcError::FetchDenied {
                        node: src.node(),
                        ppage,
                    });
                }
                Err(NakReason::DaemonDown) => {
                    return Err(VmmcError::DaemonUnavailable { node: src.node() });
                }
            }
            off += n;
        }
        if let Some(rec) = self.system.obs() {
            rec.push(shrimp_obs::SpanRec {
                msg,
                node: self.node_index,
                layer: shrimp_obs::Layer::Endpoint,
                name: "fetch",
                start: t0,
                end: ctx.now(),
                bytes: len,
            });
        }
        Ok(())
    }

    /// Like [`Vmmc::fetch`], but rides out transient refusals: on
    /// [`VmmcError::FetchDenied`] (an injected violation froze the page;
    /// the OS repair re-enables it) or [`VmmcError::DaemonUnavailable`]
    /// the call backs off per `policy` and retries. Other errors surface
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] once every attempt was refused; otherwise
    /// as for [`Vmmc::fetch`].
    pub fn fetch_retry(
        &self,
        ctx: &Ctx,
        dst: VAddr,
        src: &ImportHandle,
        src_off: usize,
        len: usize,
        policy: shrimp_sim::RetryPolicy,
    ) -> Result<(), VmmcError> {
        for attempt in 0..policy.attempts {
            match self.fetch(ctx, dst, src, src_off, len) {
                Err(VmmcError::FetchDenied { .. } | VmmcError::DaemonUnavailable { .. }) => {
                    ctx.advance(policy.timeout(attempt));
                }
                other => return other,
            }
        }
        Err(VmmcError::Timeout {
            op: "fetch",
            waited: policy.total_budget(),
        })
    }

    /// The monotone fetch-completion count: how many fetch chunks this
    /// endpoint has completed, as deposited in the completion flag word
    /// by the reply engine. Zero before the first fetch.
    pub fn fetch_completions(&self) -> u32 {
        let va = match *self.fetch_flag.lock() {
            Some((va, _)) => va,
            None => return 0,
        };
        let b = self.proc_.peek(va, 4).expect("fetch flag word is mapped");
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    fn fetch_flag_slot(&self) -> (VAddr, u32) {
        let mut g = self.fetch_flag.lock();
        let (va, count) = g.get_or_insert_with(|| (self.proc_.alloc(4, CacheMode::WriteBack), 0));
        *count += 1;
        (*va, *count)
    }

    // ------------------------------------------------------------------
    // Automatic update
    // ------------------------------------------------------------------

    /// Bind `pages` local pages starting at `local_va` (page-aligned) to
    /// the imported buffer starting at byte `dst_off` (page-aligned
    /// within the export). The pages become write-through and every
    /// store to them propagates to the destination in hardware.
    ///
    /// # Errors
    ///
    /// * [`VmmcError::UnalignedBinding`] for non-page-aligned arguments;
    /// * [`VmmcError::OutOfRange`] if the window exceeds the buffer;
    /// * [`VmmcError::Fault`] if local pages are not mapped writable.
    #[allow(clippy::too_many_arguments)] // mirrors the VMMC call's signature
    pub fn bind_au(
        &self,
        ctx: &Ctx,
        local_va: VAddr,
        dst: &ImportHandle,
        dst_off: usize,
        pages: usize,
        combine: bool,
        dst_interrupt: bool,
    ) -> Result<AuBinding, VmmcError> {
        ctx.advance(self.proc_.node().costs().os_export);
        if !dst.alive.load(Ordering::SeqCst) {
            return Err(VmmcError::StaleImport);
        }
        if local_va.offset() != 0 || !(dst.info().first_offset + dst_off).is_multiple_of(PAGE_SIZE)
        {
            return Err(VmmcError::UnalignedBinding);
        }
        if dst_off + pages * PAGE_SIZE > dst.len() + (PAGE_SIZE - 1) {
            return Err(VmmcError::OutOfRange {
                offset: dst_off,
                len: pages * PAGE_SIZE,
                buffer_len: dst.len(),
            });
        }
        let aspace = self.proc_.aspace();
        let nic = self.system.nic(self.node_index);
        let mut local_ppages = Vec::with_capacity(pages);
        let mut local_vpages = Vec::with_capacity(pages);
        for i in 0..pages {
            let va = local_va.add(i * PAGE_SIZE);
            let (pa, _) = aspace.translate(va, true)?;
            aspace.set_cache_mode(va.page(), CacheMode::WriteThrough)?;
            let dst_abs = dst.info().first_offset + dst_off + i * PAGE_SIZE;
            let dst_ppage = dst.info().ppages[dst_abs / PAGE_SIZE];
            nic.opt().bind(
                pa.page(),
                OptEntry {
                    dst_node: dst.node(),
                    dst_ppage,
                    combine,
                    dst_interrupt,
                },
            );
            local_ppages.push(pa.page());
            local_vpages.push(va.page());
        }
        Ok(AuBinding {
            local_va,
            pages,
            local_ppages,
            local_vpages,
        })
    }

    /// Destroy an automatic-update binding: flushes any held combining
    /// packet, waits for in-flight traffic, unbinds the pages and
    /// restores them to write-back.
    pub fn unbind_au(&self, ctx: &Ctx, binding: AuBinding) {
        let nic = self.system.nic(self.node_index);
        nic.flush_combining();
        self.drain(ctx);
        ctx.advance(self.proc_.node().costs().os_export);
        for (&ppage, &vpage) in binding.local_ppages.iter().zip(&binding.local_vpages) {
            nic.opt().unbind(ppage);
            let _ = self
                .proc_
                .aspace()
                .set_cache_mode(vpage, CacheMode::WriteBack);
        }
    }

    // ------------------------------------------------------------------
    // Receive-side waiting and notifications
    // ------------------------------------------------------------------

    /// Wait until the word at `va` satisfies `pred`, first polling
    /// (`poll_budget` iterations), then blocking until incoming data
    /// activity, then polling again — the polling/blocking switch of
    /// paper §6. Returns the satisfying value.
    ///
    /// # Errors
    ///
    /// Fails if `va` is unmapped.
    pub fn wait_u32(
        &self,
        ctx: &Ctx,
        va: VAddr,
        poll_budget: usize,
        mut pred: impl FnMut(u32) -> bool,
    ) -> Result<u32, VmmcError> {
        loop {
            if let Some(v) = self.proc_.poll_u32(ctx, va, poll_budget, &mut pred)? {
                return Ok(v);
            }
            self.wait_activity(ctx, || {
                // Re-check after registering to close the wake-up race.
                matches!(self.proc_.poll_u32(ctx, va, 1, &mut pred), Ok(Some(_)))
            });
        }
    }

    /// Like [`Vmmc::wait_u32`], but give up at `deadline` — the bounded
    /// wait the serving layers need so a call into a crashed peer
    /// surfaces as a typed error instead of blocking forever.
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] once virtual time reaches `deadline`
    /// without the predicate holding; fails if `va` is unmapped.
    pub fn wait_u32_deadline(
        &self,
        ctx: &Ctx,
        va: VAddr,
        poll_budget: usize,
        deadline: SimTime,
        mut pred: impl FnMut(u32) -> bool,
    ) -> Result<u32, VmmcError> {
        let start = ctx.now();
        let mut armed = false;
        loop {
            if let Some(v) = self.proc_.poll_u32(ctx, va, poll_budget, &mut pred)? {
                return Ok(v);
            }
            if ctx.now() >= deadline {
                return Err(VmmcError::Timeout {
                    op: "wait_u32",
                    waited: ctx.now().since(start),
                });
            }
            if !armed {
                // One scheduled wake at the deadline; spurious unparks
                // are latched, so the activity wait below re-checks.
                armed = true;
                let pid = ctx.pid();
                let h = ctx.handle();
                ctx.schedule_at(deadline, move || h.unpark(pid));
            }
            self.wait_activity(ctx, || {
                matches!(self.proc_.poll_u32(ctx, va, 1, &mut pred), Ok(Some(_)))
            });
        }
    }

    /// Block until any packet lands in one of this endpoint's exported
    /// pages. `recheck` runs after the waiter is registered; returning
    /// `true` skips the sleep (avoids the lost-wakeup race). Spurious
    /// returns are possible; callers loop.
    pub fn wait_activity(&self, ctx: &Ctx, recheck: impl FnOnce() -> bool) {
        {
            let mut st = self.shared.state.lock();
            st.activity_waiters.push(ctx.pid());
        }
        if recheck() {
            let mut st = self.shared.state.lock();
            st.activity_waiters.retain(|p| *p != ctx.pid());
            return;
        }
        ctx.park();
        let mut st = self.shared.state.lock();
        st.activity_waiters.retain(|p| *p != ctx.pid());
    }

    /// Block or unblock notifications. While blocked, notifications
    /// queue instead of waking the process (paper §2.3).
    pub fn set_notifications_blocked(&self, ctx: &Ctx, blocked: bool) {
        let to_wake: Vec<ProcessId> = {
            let mut st = self.shared.state.lock();
            st.notify_blocked = blocked;
            if !blocked && !st.pending_notifies.is_empty() {
                st.notify_waiters.drain(..).collect()
            } else {
                Vec::new()
            }
        };
        for pid in to_wake {
            ctx.unpark(pid);
        }
    }

    /// Consume one queued notification, blocking until one arrives (and
    /// notifications are unblocked). Charges the signal-delivery cost and
    /// runs the buffer's handler before returning the event.
    pub fn wait_notification(&self, ctx: &Ctx) -> NotifyEvent {
        loop {
            let ev = {
                let mut st = self.shared.state.lock();
                if st.notify_blocked {
                    None
                } else {
                    st.pending_notifies.pop_front()
                }
            };
            if let Some(ev) = ev {
                ctx.advance(self.proc_.node().costs().signal_delivery);
                self.run_handler(ctx, ev);
                return ev;
            }
            {
                let mut st = self.shared.state.lock();
                st.notify_waiters.push(ctx.pid());
            }
            ctx.park();
            let mut st = self.shared.state.lock();
            st.notify_waiters.retain(|p| *p != ctx.pid());
        }
    }

    /// Consume any queued notifications without blocking; returns how
    /// many handlers ran.
    pub fn poll_notifications(&self, ctx: &Ctx) -> usize {
        let mut n = 0;
        loop {
            let ev = {
                let mut st = self.shared.state.lock();
                if st.notify_blocked {
                    None
                } else {
                    st.pending_notifies.pop_front()
                }
            };
            match ev {
                None => return n,
                Some(ev) => {
                    ctx.advance(self.proc_.node().costs().signal_delivery);
                    self.run_handler(ctx, ev);
                    n += 1;
                }
            }
        }
    }

    fn run_handler(&self, ctx: &Ctx, ev: NotifyEvent) {
        // Take the handler out so it can borrow the endpoint if it wants.
        let handler = self.shared.state.lock().handlers.remove(&ev.buffer);
        if let Some(mut h) = handler {
            h(ctx, ev);
            self.shared
                .state
                .lock()
                .handlers
                .entry(ev.buffer)
                .or_insert(h);
        }
    }

    /// Wait until the whole machine has no packet in flight. Used by the
    /// unexport/unimport/unbind drains; stronger than strictly necessary
    /// (it waits for *all* traffic, not just this mapping's) but simple
    /// and correct.
    pub fn drain(&self, ctx: &Ctx) {
        let gap = self.proc_.node().costs().poll_gap;
        while !self.system.quiescent() {
            ctx.advance(gap);
        }
    }
}
