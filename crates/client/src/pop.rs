//! The struct-of-arrays client population.
//!
//! A cell serves thousands to millions of mobile hosts, and the
//! engine's sharded tick phases walk *every* client once per broadcast.
//! Scattering per-client state across individually boxed `Client`
//! structs makes that walk a pointer chase; [`ClientPop`] instead keeps
//! one column per field — disconnect epoch, last-report time, cache,
//! gap/retry state, counters — plus a shared [`PendingArena`] holding
//! every client's pending-query nodes in one contiguous slab. The
//! sharded phases then scan contiguous column ranges.
//!
//! The state-machine handlers themselves are written once, against the
//! [`ClientMut`] accessor view (per-field `&mut` borrows into the
//! columns), so the scheme logic never sees column indices. A
//! single-client population backs the classic [`Client`] wrapper, which
//! keeps the old per-client API (and its tests) intact.
//!
//! Per-scheme column groups are materialized only for the active
//! scheme: the `SIG` baseline column exists only when the population
//! runs [`Scheme::Sig`], so the other seven schemes pay nothing for it.
//!
//! [`Client`]: crate::Client

use crate::machine::{ClientAction, ClientConfig, ClientCounters};
use crate::query::{PendingItem, PendingState, QueryHeader};
use mobicache_cache::{EntryState, LruCache};
use mobicache_model::{CheckingMode, ItemId, Scheme, UplinkKind};
use mobicache_reports::{
    BsSelect, PlanCache, PlanStats, PreparedReport, ReportPayload, SigDecision,
};
use mobicache_sim::SimTime;
use std::collections::HashSet;

/// A reconnection gap: the period of history the client missed and has
/// not yet been vouched for.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GapState {
    /// `Tlb` at the moment the gap was detected — coverage target for
    /// salvage.
    since: SimTime,
    /// When the `Tlb`/check message was sent, if it was.
    sent_at: Option<SimTime>,
    /// Re-sends of the gap's `Tlb`/check so far (capped backoff).
    retries: u32,
}

/// How a report application answers its per-item lookups.
enum Lookup<'r> {
    /// The plan-less reference path: the prepared report's sorted
    /// indexes.
    Prepared(&'r PreparedReport<'r>),
    /// The engine's path: the per-tick plan decoded from this report —
    /// its bitmap for the word-wise intersection, its O(1) probes for
    /// the per-item fallback — with the hit/miss tallies.
    Plan(&'r PlanCache, &'r mut PlanStats),
}

/// One client's region of the pending arena.
#[derive(Clone, Copy, Debug, Default)]
struct Block {
    /// First node of the block in [`PendingArena::nodes`].
    start: u32,
    /// Capacity in nodes. The active query uses the first
    /// `QueryHeader::len` of them.
    cap: u32,
}

/// The shared slab of pending-query nodes, keyed by client index.
///
/// Each client owns one contiguous grow-only block; blocks are resized
/// only from the serial [`ClientPop::start_query`] path (a block that
/// outgrows its capacity is re-allocated at the tail and the old region
/// retired), so the parallel tick phases may freely mutate their own
/// clients' nodes through raw column pointers without ever moving the
/// slab.
#[derive(Debug, Default)]
pub struct PendingArena {
    nodes: Vec<PendingItem>,
    blocks: Vec<Block>,
}

impl PendingArena {
    fn with_clients(n: usize) -> Self {
        PendingArena {
            nodes: Vec::new(),
            blocks: vec![Block::default(); n],
        }
    }

    /// Ensures client `i`'s block holds at least `need` nodes and
    /// returns its start index. Serial-phase only: may move the slab.
    fn ensure(&mut self, i: usize, need: u32) -> usize {
        let b = self.blocks[i];
        if b.cap < need {
            // Grow-only: the new block lands at the tail; the old region
            // is retired in place (bounded by the sum of growth steps).
            let cap = need.next_power_of_two().max(4);
            let start = self.nodes.len() as u32;
            self.nodes.extend(std::iter::repeat_n(
                PendingItem::fresh(ItemId(0)),
                cap as usize,
            ));
            self.blocks[i] = Block { start, cap };
            start as usize
        } else {
            b.start as usize
        }
    }

    /// Total nodes allocated (diagnostics).
    pub fn nodes_allocated(&self) -> usize {
        self.nodes.len()
    }
}

/// A struct-of-arrays population of mobile clients.
///
/// All clients share one [`ClientConfig`]; per-client state lives in
/// parallel columns indexed by `ClientId::index()`. Mutating access
/// goes through [`ClientPop::client_mut`] (serial) or a [`PopPtr`]
/// (sharded phases over disjoint index ranges).
pub struct ClientPop {
    cfg: ClientConfig,
    caches: Vec<LruCache>,
    tlb: Vec<SimTime>,
    connected: Vec<bool>,
    /// Dense mirror of `connected`: bit `i` set iff client `i` listens.
    /// The fan-out copies this as its delivery-mask seed, so shards skip
    /// 64 disconnected clients per zero word instead of branching each.
    /// Maintained only by the pop-level [`ClientPop::disconnect`] /
    /// [`ClientPop::reconnect`] wrappers (serial phases).
    connected_bits: Vec<u64>,
    reconnect_pending: Vec<bool>,
    disconnected_at: Vec<Option<SimTime>>,
    gap: Vec<Option<GapState>>,
    header: Vec<Option<QueryHeader>>,
    counters: Vec<ClientCounters>,
    /// Which cell each client is currently associated with (all zero in
    /// the single-cell topology).
    cell: Vec<u32>,
    /// One membership bitmap per cell: bit `i` of `cell_bits[c]` is set
    /// iff client `i` is associated with cell `c`. The per-cell fan-out
    /// intersects this with `connected_bits` for its delivery mask.
    /// Maintained only by the serial [`ClientPop::handoff`] wrapper.
    cell_bits: Vec<Vec<u64>>,
    /// Per-scheme column group: stored combined signatures, materialized
    /// only under [`Scheme::Sig`].
    sig_baselines: Option<Vec<Option<Vec<u64>>>>,
    arena: PendingArena,
}

impl ClientPop {
    /// A population of `n` fresh, connected clients with empty caches
    /// in a single cell (the legacy topology).
    pub fn new(cfg: ClientConfig, n: usize) -> Self {
        ClientPop::with_cells(cfg, n, 1)
    }

    /// A population of `n` fresh, connected clients spread round-robin
    /// over `cells` cells (client `i` starts in cell `i % cells`).
    ///
    /// # Panics
    /// Panics if `cells` is zero.
    pub fn with_cells(cfg: ClientConfig, n: usize, cells: u32) -> Self {
        assert!(cells > 0, "at least one cell");
        let words = n.div_ceil(64);
        let mut cell = Vec::with_capacity(n);
        let mut cell_bits = vec![vec![0u64; words]; cells as usize];
        for i in 0..n {
            let c = (i as u32) % cells;
            cell.push(c);
            cell_bits[c as usize][i / 64] |= 1u64 << (i % 64);
        }
        ClientPop {
            caches: (0..n).map(|_| LruCache::new(cfg.cache_capacity)).collect(),
            tlb: vec![SimTime::ZERO; n],
            connected: vec![true; n],
            connected_bits: {
                let mut words = vec![u64::MAX; words];
                if !n.is_multiple_of(64) {
                    if let Some(last) = words.last_mut() {
                        *last = (1u64 << (n % 64)) - 1;
                    }
                }
                words
            },
            reconnect_pending: vec![false; n],
            disconnected_at: vec![None; n],
            gap: vec![None; n],
            header: vec![None; n],
            counters: vec![ClientCounters::default(); n],
            cell,
            cell_bits,
            sig_baselines: (cfg.scheme == Scheme::Sig).then(|| vec![None; n]),
            arena: PendingArena::with_clients(n),
            cfg,
        }
    }

    /// Number of clients in the population.
    pub fn len(&self) -> usize {
        self.caches.len()
    }

    /// `true` for the empty population.
    pub fn is_empty(&self) -> bool {
        self.caches.is_empty()
    }

    /// The shared static configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Read access to client `i`'s cache.
    pub fn cache(&self, i: usize) -> &LruCache {
        &self.caches[i]
    }

    /// The whole cache column (sharded oracle scans walk this).
    pub fn caches_col(&self) -> &[LruCache] {
        &self.caches
    }

    /// The whole connected column.
    pub fn connected_col(&self) -> &[bool] {
        &self.connected
    }

    /// The connected set as bitmap words (bit `i` = client `i` listens).
    /// The last word's tail bits beyond `len()` are zero.
    pub fn connected_words(&self) -> &[u64] {
        &self.connected_bits
    }

    /// Number of cells the population is spread over.
    pub fn cells(&self) -> u32 {
        self.cell_bits.len() as u32
    }

    /// The cell client `i` is currently associated with.
    pub fn cell_of(&self, i: usize) -> u32 {
        self.cell[i]
    }

    /// Cell `c`'s membership as bitmap words (bit `i` = client `i` is
    /// associated with cell `c`). Tail bits beyond `len()` are zero.
    pub fn cell_words(&self, c: u32) -> &[u64] {
        &self.cell_bits[c as usize]
    }

    /// Moves client `i` to cell `dest`, keeping the membership bitmaps
    /// in sync. Serial-phase only (bitmap words span 64 clients).
    /// Re-associating with the current cell is a no-op.
    pub fn handoff(&mut self, i: usize, dest: u32) {
        let from = self.cell[i] as usize;
        let dest_idx = dest as usize;
        assert!(dest_idx < self.cell_bits.len(), "cell {dest} out of range");
        self.cell_bits[from][i / 64] &= !(1u64 << (i % 64));
        self.cell_bits[dest_idx][i / 64] |= 1u64 << (i % 64);
        self.cell[i] = dest;
    }

    /// `true` while client `i` has an unresolved reconnection gap (its
    /// limbo entries await a covering report or verdict). The mobility
    /// process defers handoffs while a gap is open so no in-flight
    /// salvage traffic crosses a cell boundary.
    pub fn has_open_gap(&self, i: usize) -> bool {
        self.gap[i].is_some()
    }

    /// Disconnects client `i`, keeping the connected bitmap in sync.
    /// Serial-phase only (a bitmap word spans 64 clients, so per-client
    /// sharded views must never touch it).
    ///
    /// # Panics
    /// Panics if already disconnected or a query is in flight.
    pub fn disconnect(&mut self, i: usize, now: SimTime) {
        self.connected_bits[i / 64] &= !(1u64 << (i % 64));
        self.client_mut(i).disconnect(now);
    }

    /// Reconnects client `i`, keeping the connected bitmap in sync and
    /// returning the doze period in seconds. Serial-phase only.
    ///
    /// # Panics
    /// Panics if already connected.
    pub fn reconnect(&mut self, i: usize, now: SimTime) -> f64 {
        self.connected_bits[i / 64] |= 1u64 << (i % 64);
        self.client_mut(i).reconnect(now)
    }

    /// The whole counters column — snapshot samplers sum straight over
    /// this contiguous slice, no per-client cloning.
    pub fn counters_col(&self) -> &[ClientCounters] {
        &self.counters
    }

    /// Client `i`'s behaviour counters.
    pub fn counters(&self, i: usize) -> ClientCounters {
        self.counters[i]
    }

    /// `true` while client `i` listens to broadcasts.
    pub fn is_connected(&self, i: usize) -> bool {
        self.connected[i]
    }

    /// Timestamp of the last report client `i` received.
    pub fn tlb(&self, i: usize) -> SimTime {
        self.tlb[i]
    }

    /// `true` while client `i` resolves a query.
    pub fn has_pending_query(&self, i: usize) -> bool {
        self.header[i].is_some()
    }

    /// The pending arena (diagnostics).
    pub fn arena(&self) -> &PendingArena {
        &self.arena
    }

    /// A read-only view of client `i`.
    pub fn client_ref(&self, i: usize) -> ClientRef<'_> {
        ClientRef {
            cache: &self.caches[i],
            tlb: self.tlb[i],
            connected: self.connected[i],
            counters: &self.counters[i],
            has_pending_query: self.header[i].is_some(),
        }
    }

    /// A mutable accessor view of client `i` (serial paths).
    pub fn client_mut(&mut self, i: usize) -> ClientMut<'_> {
        let b = self.arena.blocks[i];
        let (start, end) = (b.start as usize, (b.start + b.cap) as usize);
        ClientMut {
            cfg: &self.cfg,
            cache: &mut self.caches[i],
            tlb: &mut self.tlb[i],
            connected: &mut self.connected[i],
            reconnect_pending: &mut self.reconnect_pending[i],
            disconnected_at: &mut self.disconnected_at[i],
            gap: &mut self.gap[i],
            header: &mut self.header[i],
            items: &mut self.arena.nodes[start..end],
            sig_baseline: self.sig_baselines.as_mut().map(|col| &mut col[i]),
            counters: &mut self.counters[i],
        }
    }

    /// Raw column pointers for the sharded tick phases.
    ///
    /// # Safety contract (checked by the callers)
    /// Shards derived from one `PopPtr` must touch **disjoint** client
    /// index ranges, and no serial-phase method that can move a column
    /// (`start_query`'s arena growth) may run while the pointer is
    /// live.
    pub fn as_ptr(&mut self) -> PopPtr {
        PopPtr {
            cfg: &self.cfg,
            caches: self.caches.as_mut_ptr(),
            tlb: self.tlb.as_mut_ptr(),
            connected: self.connected.as_mut_ptr(),
            reconnect_pending: self.reconnect_pending.as_mut_ptr(),
            disconnected_at: self.disconnected_at.as_mut_ptr(),
            gap: self.gap.as_mut_ptr(),
            header: self.header.as_mut_ptr(),
            counters: self.counters.as_mut_ptr(),
            sig: self
                .sig_baselines
                .as_mut()
                .map_or(std::ptr::null_mut(), |col| col.as_mut_ptr()),
            nodes: self.arena.nodes.as_mut_ptr(),
            blocks: self.arena.blocks.as_ptr(),
        }
    }

    /// Issues a query for client `i` referencing `items`. Serial-phase
    /// only: the arena block may grow (and the slab move).
    ///
    /// # Panics
    /// Panics if a query is already in flight, the client is
    /// disconnected, or `items` is empty.
    pub fn start_query(&mut self, i: usize, now: SimTime, items: &[ItemId]) {
        assert!(self.connected[i], "query while disconnected");
        assert!(self.header[i].is_none(), "overlapping queries");
        self.counters[i].queries_issued += 1;
        let n = items.len() as u32;
        self.header[i] = Some(QueryHeader::new(now, n));
        let start = self.arena.ensure(i, n);
        for (slot, &item) in self.arena.nodes[start..start + items.len()]
            .iter_mut()
            .zip(items)
        {
            *slot = PendingItem::fresh(item);
        }
    }
}

/// A read-only per-client view over the population columns.
#[derive(Clone, Copy)]
pub struct ClientRef<'a> {
    /// The client's cache.
    pub cache: &'a LruCache,
    /// Timestamp of the last report received.
    pub tlb: SimTime,
    /// `true` while listening to broadcasts.
    pub connected: bool,
    /// Behaviour counters.
    pub counters: &'a ClientCounters,
    /// `true` while a query is being resolved.
    pub has_pending_query: bool,
}

/// A mutable per-client accessor view: one `&mut` per column cell, so
/// the scheme handlers read exactly like the old self-contained
/// `Client` while the state actually lives in the population columns.
pub struct ClientMut<'a> {
    cfg: &'a ClientConfig,
    cache: &'a mut LruCache,
    tlb: &'a mut SimTime,
    connected: &'a mut bool,
    reconnect_pending: &'a mut bool,
    disconnected_at: &'a mut Option<SimTime>,
    gap: &'a mut Option<GapState>,
    header: &'a mut Option<QueryHeader>,
    /// The client's full arena block; the active query occupies the
    /// first `QueryHeader::len` nodes.
    items: &'a mut [PendingItem],
    /// `None` unless the population materialized the SIG column.
    sig_baseline: Option<&'a mut Option<Vec<u64>>>,
    counters: &'a mut ClientCounters,
}

/// Raw pointers into every [`ClientPop`] column, `Copy + Send`, for the
/// engine's sharded phases. Each worker derives [`ClientMut`] views for
/// the client indices of its own chunk only.
#[derive(Clone, Copy)]
pub struct PopPtr {
    cfg: *const ClientConfig,
    caches: *mut LruCache,
    tlb: *mut SimTime,
    connected: *mut bool,
    reconnect_pending: *mut bool,
    disconnected_at: *mut Option<SimTime>,
    gap: *mut Option<GapState>,
    header: *mut Option<QueryHeader>,
    counters: *mut ClientCounters,
    /// Null when the SIG column is not materialized.
    sig: *mut Option<Vec<u64>>,
    nodes: *mut PendingItem,
    blocks: *const Block,
}

// SAFETY: a PopPtr is only ever dereferenced through `client_mut` on
// disjoint index ranges (one shard per range), which is exactly the
// discipline `&mut [Client]` chunking used to enforce statically.
unsafe impl Send for PopPtr {}
unsafe impl Sync for PopPtr {}

impl PopPtr {
    /// A mutable view of client `i`.
    ///
    /// # Safety
    /// The population must outlive `'a`, no two live views may share an
    /// index, and the arena slab must not move while views are live.
    pub unsafe fn client_mut<'a>(self, i: usize) -> ClientMut<'a> {
        let b = *self.blocks.add(i);
        ClientMut {
            cfg: &*self.cfg,
            cache: &mut *self.caches.add(i),
            tlb: &mut *self.tlb.add(i),
            connected: &mut *self.connected.add(i),
            reconnect_pending: &mut *self.reconnect_pending.add(i),
            disconnected_at: &mut *self.disconnected_at.add(i),
            gap: &mut *self.gap.add(i),
            header: &mut *self.header.add(i),
            items: std::slice::from_raw_parts_mut(self.nodes.add(b.start as usize), b.cap as usize),
            sig_baseline: if self.sig.is_null() {
                None
            } else {
                Some(&mut *self.sig.add(i))
            },
            counters: &mut *self.counters.add(i),
        }
    }
}

impl ClientMut<'_> {
    /// The shared static configuration.
    pub fn config(&self) -> &ClientConfig {
        self.cfg
    }

    /// Read access to the cache.
    pub fn cache(&self) -> &LruCache {
        self.cache
    }

    /// Behaviour counters.
    pub fn counters(&self) -> ClientCounters {
        *self.counters
    }

    /// `true` while listening to broadcasts.
    pub fn is_connected(&self) -> bool {
        *self.connected
    }

    /// Timestamp of the last report received.
    pub fn tlb(&self) -> SimTime {
        *self.tlb
    }

    /// `true` while a query is being resolved.
    pub fn has_pending_query(&self) -> bool {
        self.header.is_some()
    }

    /// The coverage target: with an open gap, reports must reach back to
    /// the gap start; otherwise to the last report heard.
    fn effective_tlb(&self) -> SimTime {
        self.gap.map_or(*self.tlb, |g| g.since)
    }

    /// Enters doze mode. The caller must not route broadcasts here while
    /// disconnected.
    ///
    /// # Panics
    /// Panics if a query is still in flight (the model only disconnects
    /// between queries).
    pub fn disconnect(&mut self, now: SimTime) {
        assert!(self.header.is_none(), "disconnect with a query in flight");
        assert!(*self.connected, "already disconnected");
        *self.connected = false;
        *self.disconnected_at = Some(now);
    }

    /// Wakes up from doze mode, returning the length of the doze period
    /// in seconds. Cache reconciliation happens at the next broadcast
    /// report.
    pub fn reconnect(&mut self, now: SimTime) -> f64 {
        assert!(!*self.connected, "already connected");
        *self.connected = true;
        *self.reconnect_pending = true;
        self.disconnected_at.take().map_or(0.0, |at| now - at)
    }

    /// Processes a broadcast invalidation report through a shared
    /// [`PreparedReport`], appending the resulting actions to `actions`
    /// (which is *not* cleared).
    ///
    /// The plan-less reference path: with the index built once, this
    /// pass is `O(|cache| · log |report|)`. Its stale list goes into a
    /// local buffer, which allocates only when the report finds a stale
    /// entry; the engine's fan-out lends a reused one instead.
    pub fn on_report_into(
        &mut self,
        now: SimTime,
        prepared: &PreparedReport<'_>,
        actions: &mut Vec<ClientAction>,
    ) {
        let lookup = Lookup::Prepared(prepared);
        self.on_report(now, prepared.payload(), lookup, actions, &mut Vec::new());
    }

    /// [`ClientMut::on_report_into`] through the per-tick invalidation
    /// plan decoded from `payload` (`plan` must hold that decode — the
    /// engine's fan-out path). When the plan's bitmap serves the
    /// client's `Tlb` bucket and the cache is large enough to profit,
    /// the stale set comes from a word-wise `plan & member`
    /// intersection; otherwise the cache is walked with the plan's O(1)
    /// per-item probes. Same stale set, same actions, same counters as
    /// the prepared path (the plan is an evaluation strategy, pinned by
    /// the `plan ≡ decide` proptests and the engine's golden digests).
    /// Hit/fallback tallies land in `stats` (not cleared). `stale` is
    /// the caller's scratch for the stale list: it must be empty on
    /// entry and is left empty.
    pub fn on_report_planned(
        &mut self,
        now: SimTime,
        payload: &ReportPayload,
        plan: &PlanCache,
        actions: &mut Vec<ClientAction>,
        stats: &mut PlanStats,
        stale: &mut Vec<ItemId>,
    ) {
        self.on_report(now, payload, Lookup::Plan(plan, stats), actions, stale);
    }

    fn on_report(
        &mut self,
        now: SimTime,
        payload: &ReportPayload,
        lookup: Lookup<'_>,
        actions: &mut Vec<ClientAction>,
        stale: &mut Vec<ItemId>,
    ) {
        assert!(*self.connected, "report delivered to a disconnected client");
        self.apply_report(now, payload, lookup, actions, stale);
        *self.tlb = payload.broadcast_at();
        self.resolve_query(now, actions);
        self.retry_pending_requests(now, actions);
    }

    /// Whether applying `plan` beats the per-item walk for this cache:
    /// the word loop touches `min(|member|, |plan|)` words, the per-item
    /// walk does `|cache|` probes. A pure function of
    /// client-local state, so the choice is identical at every thread
    /// count.
    fn plan_profitable(plan: &PlanCache, cache: &LruCache) -> bool {
        plan.words().len().min(cache.member_words().len()) <= 8 * cache.len() + 4
    }

    /// Processes a downloaded data item, appending the resulting actions
    /// to `actions` (which is *not* cleared).
    pub fn on_data_into(
        &mut self,
        now: SimTime,
        item: ItemId,
        version: SimTime,
        actions: &mut Vec<ClientAction>,
    ) {
        self.cache.insert(item, version, now);
        if let Some(q) = self.header.as_mut() {
            let n = q.len as usize;
            q.resolve(&mut self.items[..n], item, PendingState::WaitData, false);
        }
        self.try_finish(now, actions);
    }

    /// Opportunistically caches a data item overheard on the broadcast
    /// downlink (snooping extension). Unlike an addressed delivery this
    /// never touches the pending query — the item was addressed to
    /// someone else. Items already cached and valid are refreshed; items
    /// the client is itself waiting for are left to the addressed
    /// delivery.
    pub fn on_snooped_data(&mut self, now: SimTime, item: ItemId, version: SimTime) {
        // Don't interfere with an in-flight fetch of the same item.
        let awaiting = match self.header.as_ref() {
            Some(q) => self.items[..q.len as usize]
                .iter()
                .any(|p| p.item == item && p.state != PendingState::Done),
            None => false,
        };
        if !awaiting {
            self.cache.insert(item, version, now);
        }
    }

    /// Processes a validity report (answer to a check request): `valid`
    /// lists the checked items that are still current as of `asof`.
    /// Appends the resulting actions to `actions` (not cleared).
    pub fn on_validity_into(
        &mut self,
        now: SimTime,
        asof: SimTime,
        valid: &[ItemId],
        actions: &mut Vec<ClientAction>,
    ) {
        let valid_set: HashSet<ItemId> = valid.iter().copied().collect();
        match self.cfg.checking_mode {
            CheckingMode::FullCache => {
                // The check covered the whole cache: every limbo entry
                // gets a verdict.
                let (salvaged, dropped) = self
                    .cache
                    .salvage_limbo(asof, |item| valid_set.contains(&item));
                self.counters.salvaged += salvaged as u64;
                self.counters.limbo_dropped += dropped as u64;
                *self.gap = None;
            }
            CheckingMode::QueriedItems => {
                // Only the pending query's items were checked.
                let checked: Vec<ItemId> = self
                    .header
                    .as_ref()
                    .map(|q| {
                        self.items[..q.len as usize]
                            .iter()
                            .filter(|p| p.state == PendingState::WaitValidity)
                            .map(|p| p.item)
                            .collect()
                    })
                    .unwrap_or_default();
                for item in checked {
                    let ok = valid_set.contains(&item);
                    if self.cache.salvage_item(item, ok, asof) {
                        if ok {
                            self.counters.salvaged += 1;
                        } else {
                            self.counters.limbo_dropped += 1;
                        }
                    }
                }
                if !self.cache.has_limbo() {
                    *self.gap = None;
                }
            }
        }
        self.resolve_validity_waiters(now, actions);
        self.try_finish(now, actions);
    }

    /// Processes a grouped-checking verdict (answer to a
    /// [`UplinkKind::GroupCheckRequest`]): `stale` lists the checked
    /// groups' items updated since the request's `Tlb`; `covered = false`
    /// means the retention window was exceeded and nothing can be
    /// salvaged. Appends the resulting actions to `actions` (not
    /// cleared).
    pub fn on_group_validity_into(
        &mut self,
        now: SimTime,
        asof: SimTime,
        covered: bool,
        stale: &[ItemId],
        actions: &mut Vec<ClientAction>,
    ) {
        if !covered {
            if !self.cache.is_empty() {
                self.counters.full_drops += 1;
            }
            self.cache.clear();
            *self.gap = None;
        } else {
            // Stale items go regardless of state; surviving limbo
            // entries are vouched for as of the verdict.
            self.cache.invalidate_many(stale.iter().copied());
            let (salvaged, dropped) = self.cache.salvage_limbo(asof, |_| true);
            self.counters.salvaged += salvaged as u64;
            self.counters.limbo_dropped += dropped as u64;
            *self.gap = None;
        }
        self.resolve_validity_waiters(now, actions);
        self.try_finish(now, actions);
    }

    /// Resolve query items that were waiting on a validity/group verdict.
    fn resolve_validity_waiters(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        if let Some(q) = self.header.as_mut() {
            // In-place walk; see `resolve_query` for why each visited
            // item is advanced through its one-element slice.
            for k in 0..q.len as usize {
                let PendingItem { item, state, .. } = self.items[k];
                if state != PendingState::WaitValidity {
                    continue;
                }
                let slot = &mut self.items[k..=k];
                if self.cache.get_valid(item).is_some() {
                    q.resolve(slot, item, PendingState::WaitValidity, true);
                } else {
                    q.transition_at(
                        slot,
                        item,
                        PendingState::WaitValidity,
                        PendingState::WaitData,
                        now,
                    );
                    actions.push(ClientAction::Uplink(UplinkKind::QueryRequest { item }));
                }
            }
        }
    }

    fn enter_gap(&mut self, _now: SimTime) {
        if self.gap.is_none() {
            *self.gap = Some(GapState {
                since: *self.tlb,
                sent_at: None,
                retries: 0,
            });
            if !self.cache.is_empty() {
                self.cache.mark_all_limbo();
                self.counters.limbo_episodes += 1;
            }
        }
    }

    fn resolve_gap(&mut self) {
        if self.gap.take().is_some() {
            // Whatever is still cached survived the covering report.
            let kept = self.cache.limbo_iter().count();
            self.counters.salvaged += kept as u64;
        }
    }

    fn apply_report(
        &mut self,
        now: SimTime,
        payload: &ReportPayload,
        lookup: Lookup<'_>,
        actions: &mut Vec<ClientAction>,
        stale: &mut Vec<ItemId>,
    ) {
        let etlb = self.effective_tlb();
        debug_assert!(stale.is_empty(), "scratch not drained");
        // A report vouches for the database state at its *broadcast* time,
        // not its delivery time — updates can land while the report is on
        // the air, so revalidating "as of delivery" would silently cover
        // them (caught by the consistency oracle).
        let report_asof = payload.broadcast_at();
        // Second disconnection while an earlier gap is still unresolved:
        // entries fetched (and thus vouched) *during* that gap are only
        // vouched up to the last report heard. If this first report after
        // the reconnection does not cover `tlb`, those entries have an
        // unvouched period of their own — fold them into the gap (back to
        // limbo) and re-arm the salvage request. Without this, a valid
        // entry could sail past updates broadcast while the client dozed
        // (caught by the consistency oracle).
        if std::mem::take(self.reconnect_pending) {
            if let Some(gap) = self.gap.as_mut() {
                let covers_tlb = match payload {
                    // BS / AT / SIG reports give a verdict for the whole
                    // missed period by construction.
                    ReportPayload::Window(w) => w.covers(*self.tlb),
                    _ => true,
                };
                if !covers_tlb {
                    self.cache.mark_all_limbo();
                    gap.sent_at = None;
                    // A fresh unvouched period restarts the retry budget.
                    gap.retries = 0;
                }
            }
        }
        match payload {
            ReportPayload::Window(w) => {
                // Provably stale entries always go, covered or not. The
                // window plan is Tlb-independent (listed bitmap + dense
                // timestamps), so every client can take it; the per-item
                // `is_stale` test (`version < t_listed`) becomes the
                // `keep` filter over the few intersection survivors, or
                // the probe of the per-item walk.
                match lookup {
                    Lookup::Plan(p, stats) if Self::plan_profitable(p, self.cache) => {
                        let cache = &*self.cache;
                        p.intersect_into(cache.member_words(), stale, |item| {
                            cache
                                .peek(item)
                                .is_some_and(|e| e.version < p.listed_ts(item))
                        });
                        stats.hits += 1;
                    }
                    Lookup::Plan(p, stats) => {
                        for (item, version) in self.cache.items_iter() {
                            if p.listed(item) && version < p.listed_ts(item) {
                                stale.push(item);
                            }
                        }
                        stats.misses += 1;
                    }
                    Lookup::Prepared(prep) => prep
                        .window_index()
                        .expect("window report was prepared")
                        .stale_into(self.cache.items_iter(), stale),
                }
                self.cache.invalidate_many(stale.drain(..));
                if w.covers(etlb) {
                    self.resolve_gap();
                    self.cache.revalidate_all(report_asof);
                } else {
                    self.on_uncovered_window(now, payload.broadcast_at(), actions);
                }
            }
            ReportPayload::BitSeq(bs) => {
                // BS staleness is pure prefix membership, so the memo key
                // is the selected prefix length: a client whose `select`
                // lands on the plan's pre-decoded bucket (the dominant
                // Tlb — everyone who heard the previous report) takes the
                // bitmap; other buckets probe the plan's rank column per
                // item. Clean/DropAll verdicts are O(1) either way.
                let sel = bs.select(etlb);
                if let BsSelect::Prefix(prefix) = sel {
                    match lookup {
                        Lookup::Plan(p, stats)
                            if p.bs_prefix() == Some(prefix)
                                && Self::plan_profitable(p, self.cache) =>
                        {
                            p.intersect_into(self.cache.member_words(), stale, |_| true);
                            stats.hits += 1;
                        }
                        Lookup::Plan(p, stats) => {
                            for (item, _) in self.cache.items_iter() {
                                if p.bs_marked(item, prefix) {
                                    stale.push(item);
                                }
                            }
                            stats.misses += 1;
                        }
                        Lookup::Prepared(prep) => {
                            let idx = prep.bs_index().expect("BS report was prepared");
                            let cached = self.cache.items_iter().map(|(i, _)| i);
                            bs.decide_with(idx, etlb, cached, stale);
                        }
                    }
                }
                match sel {
                    BsSelect::Clean => {
                        self.resolve_gap();
                        self.cache.revalidate_all(report_asof);
                    }
                    BsSelect::DropAll => {
                        *self.gap = None;
                        if !self.cache.is_empty() {
                            self.counters.full_drops += 1;
                        }
                        self.cache.clear();
                    }
                    BsSelect::Prefix(_) => {
                        self.cache.invalidate_many(stale.drain(..));
                        self.resolve_gap();
                        self.cache.revalidate_all(report_asof);
                    }
                }
            }
            ReportPayload::At(at) => {
                // The AT listed-item bitmap is Tlb-independent; coverage
                // stays a scalar check (an uncovered client drops its
                // whole cache without touching the plan).
                if at.covers(etlb) {
                    match lookup {
                        Lookup::Plan(p, stats) if Self::plan_profitable(p, self.cache) => {
                            p.intersect_into(self.cache.member_words(), stale, |_| true);
                            stats.hits += 1;
                        }
                        Lookup::Plan(p, stats) => {
                            for (item, _) in self.cache.items_iter() {
                                if p.listed(item) {
                                    stale.push(item);
                                }
                            }
                            stats.misses += 1;
                        }
                        Lookup::Prepared(prep) => {
                            let idx = prep.at_index().expect("AT report was prepared");
                            let cached = self.cache.items_iter().map(|(i, _)| i);
                            at.decide_with(idx, etlb, cached, stale);
                        }
                    }
                    self.cache.invalidate_many(stale.drain(..));
                    self.resolve_gap();
                    self.cache.revalidate_all(report_asof);
                } else {
                    // Amnesic: nothing to salvage, ever.
                    *self.gap = None;
                    if !self.cache.is_empty() {
                        self.counters.full_drops += 1;
                    }
                    self.cache.clear();
                }
            }
            ReportPayload::Sig(sig, signer) => {
                let cached = self.cache.items_iter().map(|(i, _)| i);
                let baseline = self.sig_baseline.as_ref().and_then(|b| b.as_deref());
                match sig.decide(signer, baseline, cached) {
                    SigDecision::NoBaseline => {
                        *self.gap = None;
                        if !self.cache.is_empty() {
                            self.counters.full_drops += 1;
                            self.cache.clear();
                        }
                    }
                    SigDecision::Invalidate(flagged) => {
                        self.cache.invalidate_many(flagged);
                        self.resolve_gap();
                        self.cache.revalidate_all(report_asof);
                    }
                }
                let slot = self
                    .sig_baseline
                    .as_mut()
                    .expect("SIG column materialized for the SIG scheme");
                **slot = Some(sig.combined.clone());
            }
        }
    }

    /// How long after an uplinked `Tlb`/check the client keeps waiting
    /// for a covering report before concluding the request (or its
    /// reply) was lost. Legacy behaviour is a fixed two periods; a
    /// fault-injection `RetryPolicy` doubles the wait per retry up to
    /// its cap.
    fn gap_grace_secs(cfg: &ClientConfig, retries: u32) -> f64 {
        let intervals = match cfg.retry {
            None => 2.0,
            Some(p) => f64::from(p.timeout_intervals_for(retries)),
        };
        intervals * cfg.broadcast_period_secs
    }

    /// The retry budget ran out: paper-faithful graceful degradation —
    /// drop the whole cache and start cold, closing the gap.
    fn degrade_exhausted(&mut self) {
        self.counters.backoff_exhaustions += 1;
        if !self.cache.is_empty() {
            self.counters.full_drops += 1;
        }
        self.cache.clear();
        *self.gap = None;
    }

    /// A window report arrived that does not reach back to the gap —
    /// the scheme-defining moment (see the crate docs table).
    fn on_uncovered_window(
        &mut self,
        now: SimTime,
        report_built_at: SimTime,
        actions: &mut Vec<ClientAction>,
    ) {
        match self.cfg.scheme {
            Scheme::TsNoCheck => {
                // Figure 1: drop the entire cache.
                if !self.cache.is_empty() {
                    self.counters.full_drops += 1;
                }
                self.cache.clear();
                *self.gap = None;
            }
            Scheme::Gcore => {
                self.enter_gap(now);
                let gap = self.gap.as_mut().expect("just entered");
                let mut retried = false;
                // Same lost-reply re-arm as simple checking.
                if let Some(sent_at) = gap.sent_at {
                    let grace = Self::gap_grace_secs(self.cfg, gap.retries);
                    if report_built_at.as_secs() >= sent_at.as_secs() + grace {
                        match self.cfg.retry {
                            Some(p) if gap.retries >= p.max_retries => {
                                self.degrade_exhausted();
                                return;
                            }
                            policy => {
                                gap.sent_at = None;
                                if policy.is_some() {
                                    gap.retries += 1;
                                    retried = true;
                                }
                            }
                        }
                    }
                }
                let gap = self.gap.as_mut().expect("still open");
                if gap.sent_at.is_none() && !self.cache.is_empty() {
                    let since = gap.since;
                    // One (group, Tlb) record per cached group — the
                    // whole point of grouping: the uplink scales with the
                    // number of groups touched, not the cache size.
                    let mut groups: Vec<(u32, f64)> = self
                        .cache
                        .items_iter()
                        .map(|(item, _)| item.0 % self.cfg.gcore_groups)
                        .collect::<std::collections::BTreeSet<u32>>()
                        .into_iter()
                        .map(|g| (g, since.as_secs()))
                        .collect();
                    groups.sort_unstable_by_key(|&(g, _)| g);
                    actions.push(ClientAction::Uplink(UplinkKind::GroupCheckRequest {
                        groups,
                    }));
                    let gap = self.gap.as_mut().expect("still open");
                    gap.sent_at = Some(now);
                    self.counters.checks_sent += 1;
                    self.counters.retries_sent += u64::from(retried);
                }
                if self.cache.is_empty() {
                    *self.gap = None;
                }
            }
            Scheme::SimpleChecking => {
                self.enter_gap(now);
                let gap = self.gap.as_mut().expect("just entered");
                let mut retried = false;
                // Re-arm a check whose validity report was lost (e.g. the
                // client dozed off while the reply was in flight): after a
                // grace of two periods (or the fault policy's backoff
                // schedule) with limbo still unresolved, send the check
                // again.
                if let Some(sent_at) = gap.sent_at {
                    let grace = Self::gap_grace_secs(self.cfg, gap.retries);
                    if report_built_at.as_secs() >= sent_at.as_secs() + grace {
                        match self.cfg.retry {
                            Some(p) if gap.retries >= p.max_retries => {
                                self.degrade_exhausted();
                                return;
                            }
                            policy => {
                                gap.sent_at = None;
                                if policy.is_some() {
                                    gap.retries += 1;
                                    retried = true;
                                }
                            }
                        }
                    }
                }
                let gap = self.gap.as_mut().expect("still open");
                if self.cfg.checking_mode == CheckingMode::FullCache
                    && gap.sent_at.is_none()
                    && !self.cache.is_empty()
                {
                    let entries: Vec<(ItemId, f64)> = self
                        .cache
                        .items_iter()
                        .map(|(i, v)| (i, v.as_secs()))
                        .collect();
                    actions.push(ClientAction::Uplink(UplinkKind::CheckRequest { entries }));
                    let gap = self.gap.as_mut().expect("still open");
                    gap.sent_at = Some(now);
                    self.counters.checks_sent += 1;
                    self.counters.retries_sent += u64::from(retried);
                }
                if self.cache.is_empty() {
                    // Nothing to salvage; the gap is moot.
                    *self.gap = None;
                }
            }
            Scheme::Afw | Scheme::Aaw => {
                self.enter_gap(now);
                let gap = self.gap.as_mut().expect("just entered");
                match gap.sent_at {
                    None => {
                        if self.cache.is_empty() {
                            *self.gap = None;
                        } else {
                            actions.push(ClientAction::Uplink(UplinkKind::TlbReport {
                                tlb_secs: gap.since.as_secs(),
                            }));
                            gap.sent_at = Some(now);
                            self.counters.tlbs_sent += 1;
                        }
                    }
                    Some(sent_at) => {
                        // Legacy: give up once a report built comfortably
                        // after our Tlb reached the server still does not
                        // cover us — the server judged BS unable to help
                        // (our Tlb predates TS(B_n)), so the limbo entries
                        // are unsalvageable. Under fault injection the
                        // uncovering report may instead mean the Tlb was
                        // *lost* on the uplink, so the policy re-sends it
                        // (idempotent at the server) with capped
                        // exponential backoff before degrading.
                        let grace = Self::gap_grace_secs(self.cfg, gap.retries);
                        if report_built_at.as_secs() >= sent_at.as_secs() + grace {
                            match self.cfg.retry {
                                None => {
                                    let dropped = self.cache.drop_limbo();
                                    self.counters.limbo_dropped += dropped as u64;
                                    *self.gap = None;
                                }
                                Some(p) if gap.retries >= p.max_retries => {
                                    self.degrade_exhausted();
                                }
                                Some(_) => {
                                    actions.push(ClientAction::Uplink(UplinkKind::TlbReport {
                                        tlb_secs: gap.since.as_secs(),
                                    }));
                                    gap.sent_at = Some(now);
                                    gap.retries += 1;
                                    self.counters.tlbs_sent += 1;
                                    self.counters.retries_sent += 1;
                                }
                            }
                        }
                    }
                }
            }
            // BS / AT / SIG clients never receive window reports.
            other => panic!("window report under scheme {other:?}"),
        }
    }

    /// After the cache has been reconciled with a report, move the
    /// pending query forward.
    fn resolve_query(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        let Some(q) = self.header.as_mut() else {
            return;
        };
        if q.waiting() == 0 {
            // Nothing waits on a report (the common case for a listener
            // whose data request is in flight): leave the arena block
            // untouched.
            self.try_finish(now, actions);
            return;
        }
        let mut check_entries: Vec<(ItemId, f64)> = Vec::new();
        // In-place index walk. Every visited `WaitReport` item leaves
        // that state, so it is the first `WaitReport` match for its id
        // in the block: advancing it through its one-element slice is
        // what a search of the whole block would do, without the search.
        for k in 0..q.len as usize {
            let PendingItem { item, state, .. } = self.items[k];
            if state != PendingState::WaitReport {
                continue;
            }
            let slot = &mut self.items[k..=k];
            if self.cache.get_valid(item).is_some() {
                q.resolve(slot, item, PendingState::WaitReport, true);
                continue;
            }
            let limbo = self
                .cache
                .peek(item)
                .is_some_and(|e| e.state == EntryState::Limbo);
            if limbo && matches!(self.cfg.scheme, Scheme::SimpleChecking | Scheme::Gcore) {
                // A verdict is (or will be) on its way: under FullCache
                // the gap check already covers this item; under
                // QueriedItems we check it now, targeted.
                q.transition_at(
                    slot,
                    item,
                    PendingState::WaitReport,
                    PendingState::WaitValidity,
                    now,
                );
                if self.cfg.checking_mode == CheckingMode::QueriedItems {
                    let version = self.cache.peek(item).expect("limbo entry").version;
                    check_entries.push((item, version.as_secs()));
                }
            } else {
                // Absent, or limbo under a scheme that fetches fresh.
                q.transition_at(
                    slot,
                    item,
                    PendingState::WaitReport,
                    PendingState::WaitData,
                    now,
                );
                actions.push(ClientAction::Uplink(UplinkKind::QueryRequest { item }));
            }
        }
        if !check_entries.is_empty() {
            actions.push(ClientAction::Uplink(UplinkKind::CheckRequest {
                entries: check_entries,
            }));
            self.counters.checks_sent += 1;
        }
        self.try_finish(now, actions);
    }

    /// Fault-injection safety net for per-item requests: a data request
    /// (or validity check) whose uplink or reply was lost would park the
    /// query forever. With a `RetryPolicy` configured, re-send after
    /// the backoff schedule's wait; a stuck validity wait falls back to
    /// fetching fresh data, which is always safe. At most one re-send
    /// per item per report keeps the retry traffic bounded by the
    /// broadcast clock. Requests are re-sent even past `max_retries`
    /// (at the capped interval): dropping the cache cannot answer a
    /// query, so the repeat request is the only route forward and it
    /// terminates once the channel heals or the server recovers.
    fn retry_pending_requests(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        let Some(policy) = self.cfg.retry else { return };
        let Some(q) = self.header.as_ref() else {
            return;
        };
        let l = self.cfg.broadcast_period_secs;
        for p in &mut self.items[..q.len as usize] {
            let Some(at) = p.requested_at else { continue };
            let wait = f64::from(policy.timeout_intervals_for(p.retries)) * l;
            if now.as_secs() < at.as_secs() + wait {
                continue;
            }
            match p.state {
                PendingState::WaitData | PendingState::WaitValidity => {
                    // Both states count as open and not waiting, so the
                    // header's counts need no update.
                    p.state = PendingState::WaitData;
                    p.requested_at = Some(now);
                    p.retries = p.retries.saturating_add(1);
                    actions.push(ClientAction::Uplink(UplinkKind::QueryRequest {
                        item: p.item,
                    }));
                    self.counters.retries_sent += 1;
                }
                PendingState::WaitReport | PendingState::Done => {}
            }
        }
    }

    fn try_finish(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        let complete = self
            .header
            .as_ref()
            .is_some_and(|q| q.is_complete(&self.items[..q.len as usize]));
        if complete {
            let q = self.header.take().expect("checked above");
            let outcome = q.outcome(&self.items[..q.len as usize], now);
            self.counters.queries_answered += 1;
            self.counters.item_hits += outcome.hits as u64;
            self.counters.item_misses += outcome.misses as u64;
            actions.push(ClientAction::QueryDone(outcome));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use mobicache_model::ClientId;
    use mobicache_reports::{AtReport, BitSequences, WindowReport};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn cfg(scheme: Scheme) -> ClientConfig {
        ClientConfig {
            scheme,
            checking_mode: CheckingMode::FullCache,
            cache_capacity: 8,
            broadcast_period_secs: 20.0,
            gcore_groups: 4,
            retry: None,
        }
    }

    fn window(at: f64, wstart: f64, records: Vec<(u32, f64)>) -> ReportPayload {
        ReportPayload::Window(WindowReport {
            broadcast_at: t(at),
            window_start: t(wstart),
            records: records
                .into_iter()
                .map(|(i, ts)| (ItemId(i), t(ts)))
                .collect(),
            dummy: None,
        })
    }

    /// One scripted step applied identically to a pop member and a
    /// standalone `Client`.
    #[derive(Clone)]
    enum Step {
        Query(Vec<u32>),
        Report(ReportPayload),
        Data(u32, f64),
        Snoop(u32, f64),
        Disconnect,
        Reconnect,
        Validity(Vec<u32>),
    }

    /// The SoA population must be observationally identical to N
    /// standalone clients running the same scripts: same actions, same
    /// counters, same cache contents. This pins the shared-arena block
    /// bookkeeping (growth, reuse, neighbours not clobbered).
    #[test]
    fn population_matches_independent_clients() {
        let schemes = [Scheme::SimpleChecking, Scheme::Afw, Scheme::Gcore];
        for scheme in schemes {
            let scripts: Vec<Vec<Step>> = vec![
                vec![
                    Step::Query(vec![3]),
                    Step::Report(window(20.0, -180.0, vec![])),
                    Step::Data(3, 0.0),
                    Step::Query(vec![3, 4, 5]),
                    Step::Report(window(40.0, -160.0, vec![])),
                    Step::Data(4, 0.0),
                    Step::Data(5, 0.0),
                ],
                vec![
                    Step::Query(vec![7]),
                    Step::Report(window(20.0, -180.0, vec![])),
                    Step::Data(7, 0.0),
                    Step::Disconnect,
                    Step::Reconnect,
                    Step::Report(window(800.0, 600.0, vec![])),
                    Step::Validity(vec![7]),
                ],
                vec![
                    Step::Snoop(9, 5.0),
                    Step::Query(vec![9, 11]),
                    Step::Report(window(20.0, -180.0, vec![(11, 10.0)])),
                    Step::Data(11, 10.0),
                ],
            ];
            let n = scripts.len();
            let mut pop = ClientPop::new(cfg(scheme), n);
            let mut solo: Vec<Client> = (0..n)
                .map(|i| Client::new(ClientId(i as u32), cfg(scheme)))
                .collect();
            let mut clock = 0.0;
            for step_idx in 0..scripts.iter().map(Vec::len).max().unwrap() {
                for (i, script) in scripts.iter().enumerate() {
                    let Some(step) = script.get(step_idx) else {
                        continue;
                    };
                    clock += 1.0;
                    let now = t(clock);
                    let mut pop_actions = Vec::new();
                    let solo_actions = match step {
                        Step::Query(items) => {
                            let ids: Vec<ItemId> = items.iter().map(|&x| ItemId(x)).collect();
                            pop.start_query(i, now, &ids);
                            solo[i].start_query(now, ids.clone());
                            Vec::new()
                        }
                        Step::Report(payload) => {
                            let prepared = payload.prepare();
                            pop.client_mut(i)
                                .on_report_into(now, &prepared, &mut pop_actions);
                            solo[i].on_report(now, payload)
                        }
                        Step::Data(item, v) => {
                            pop.client_mut(i).on_data_into(
                                now,
                                ItemId(*item),
                                t(*v),
                                &mut pop_actions,
                            );
                            solo[i].on_data(now, ItemId(*item), t(*v))
                        }
                        Step::Snoop(item, v) => {
                            pop.client_mut(i).on_snooped_data(now, ItemId(*item), t(*v));
                            solo[i].on_snooped_data(now, ItemId(*item), t(*v));
                            Vec::new()
                        }
                        Step::Disconnect => {
                            pop.client_mut(i).disconnect(now);
                            solo[i].disconnect(now);
                            Vec::new()
                        }
                        Step::Reconnect => {
                            pop.client_mut(i).reconnect(now);
                            solo[i].reconnect(now);
                            Vec::new()
                        }
                        Step::Validity(valid) => {
                            let ids: Vec<ItemId> = valid.iter().map(|&x| ItemId(x)).collect();
                            pop.client_mut(i).on_validity_into(
                                now,
                                t(clock - 0.5),
                                &ids,
                                &mut pop_actions,
                            );
                            solo[i].on_validity(now, t(clock - 0.5), &ids)
                        }
                    };
                    assert_eq!(pop_actions, solo_actions, "{scheme:?} client {i}");
                }
            }
            for (i, solo_client) in solo.iter().enumerate() {
                assert_eq!(
                    pop.counters(i),
                    solo_client.counters(),
                    "{scheme:?} client {i}"
                );
                let mut a: Vec<(ItemId, SimTime)> = pop.cache(i).items_iter().collect();
                let mut b: Vec<(ItemId, SimTime)> = solo_client.cache().items_iter().collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{scheme:?} client {i} cache diverged");
            }
        }
    }

    /// The engine's planned path (plan bitmap, or the plan's O(1)
    /// probes) leaves every client exactly as the prepared reference
    /// path does, for each report kind with a plan: clients in the
    /// dominant `Tlb` bucket and outside it, caches on both sides of the
    /// profitability rule.
    #[test]
    fn planned_path_matches_prepared_path() {
        const DB: u32 = 4096;
        let listed: Vec<ItemId> = (0..300).map(|i| ItemId(i * 7 % DB)).collect();
        let recency: Vec<(ItemId, SimTime)> = listed
            .iter()
            .enumerate()
            .map(|(r, &id)| (id, t(99.9 - r as f64 * 0.3)))
            .collect();
        let window_at = |at: f64, records: Vec<(ItemId, SimTime)>| {
            ReportPayload::Window(WindowReport {
                broadcast_at: t(at),
                window_start: t(0.0),
                records,
                dummy: None,
            })
        };
        let at_report = |at: f64, prev: f64, items: Vec<ItemId>| {
            ReportPayload::At(AtReport {
                broadcast_at: t(at),
                prev_broadcast: t(prev),
                items,
            })
        };
        // The earlier report lists other items, so leftovers of its
        // decode in the plan would show.
        let others: Vec<(ItemId, SimTime)> = (0..300)
            .map(|k| (ItemId(k * 7 + 1), t(40.0 - k as f64 * 0.1)))
            .collect();
        let other_ids: Vec<ItemId> = others.iter().map(|&(id, _)| id).collect();
        // (scheme, an earlier report heard by the even clients only, the
        // report under test). Dominant Tlb = 50: under BS, Tlb 50 selects
        // the 256-prefix and Tlb 0 the 512-prefix; an AT client at Tlb 0
        // is not covered.
        let cases = [
            (
                Scheme::Bs,
                ReportPayload::BitSeq(BitSequences::from_recency(t(50.0), DB, others.clone())),
                ReportPayload::BitSeq(BitSequences::from_recency(t(100.0), DB, recency.clone())),
            ),
            (
                Scheme::TsNoCheck,
                window_at(50.0, others.clone()),
                window_at(100.0, recency.clone()),
            ),
            (
                Scheme::At,
                at_report(50.0, 0.0, other_ids),
                at_report(100.0, 50.0, listed.clone()),
            ),
        ];
        for (scheme, earlier, report) in cases {
            let n = 16;
            let mut reference = ClientPop::new(cfg(scheme), n);
            let mut planned = ClientPop::new(cfg(scheme), n);
            let earlier_prep = earlier.prepare();
            for pop in [&mut reference, &mut planned] {
                for i in 0..n {
                    let mut acts = Vec::new();
                    if i % 2 == 0 {
                        pop.client_mut(i)
                            .on_report_into(t(50.0), &earlier_prep, &mut acts);
                    }
                    // Client i caches i % 8 + 1 items, listed in the
                    // report under test or in the earlier one, at versions
                    // both older and newer than the listing.
                    for j in 0..=(i % 8) {
                        let item = ItemId(((i * 31 + j * 37) % 300 * 7 + j % 2) as u32 % DB);
                        let version = t(10.0 + 12.0 * j as f64);
                        pop.client_mut(i).on_snooped_data(t(60.0), item, version);
                    }
                }
            }
            let mut plan = PlanCache::new();
            plan.decode_for_tick(&earlier, t(0.0), DB);
            plan.decode_for_tick(&report, t(50.0), DB);
            let prepared = report.prepare();
            let mut stats = PlanStats::default();
            let mut stale = Vec::new();
            for i in 0..n {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                reference
                    .client_mut(i)
                    .on_report_into(t(100.0), &prepared, &mut a);
                planned.client_mut(i).on_report_planned(
                    t(100.0),
                    &report,
                    &plan,
                    &mut b,
                    &mut stats,
                    &mut stale,
                );
                assert_eq!(a, b, "{scheme:?} client {i} actions");
                assert_eq!(reference.counters(i), planned.counters(i));
                let mut ca: Vec<_> = reference.cache(i).entries_iter().collect();
                let mut cb: Vec<_> = planned.cache(i).entries_iter().collect();
                ca.sort_unstable_by_key(|e| e.0);
                cb.sort_unstable_by_key(|e| e.0);
                assert_eq!(ca, cb, "{scheme:?} client {i} cache");
            }
            assert!(stats.hits > 0 && stats.misses > 0, "{scheme:?}: {stats:?}");
        }
    }

    /// Arena blocks grow without clobbering neighbours and reuse their
    /// capacity for later, smaller queries.
    #[test]
    fn arena_blocks_grow_and_reuse() {
        let mut pop = ClientPop::new(cfg(Scheme::Bs), 3);
        let items: Vec<ItemId> = (0..6).map(ItemId).collect();
        pop.start_query(0, t(1.0), &items[..2]);
        pop.start_query(1, t(1.0), &items[..5]);
        let after_first = pop.arena().nodes_allocated();
        assert!(after_first >= 7, "two blocks allocated");
        // Complete client 1's query, then issue a bigger one: the block
        // must grow, and client 0's pending items must be untouched.
        let prepared = ReportPayload::BitSeq(mobicache_reports::BitSequences::from_recency(
            t(20.0),
            64,
            vec![],
        ));
        let prep = prepared.prepare();
        let mut acts = Vec::new();
        pop.client_mut(1).on_report_into(t(20.0), &prep, &mut acts);
        for k in 0..5 {
            pop.client_mut(1)
                .on_data_into(t(21.0), ItemId(k), SimTime::ZERO, &mut acts);
        }
        assert!(!pop.has_pending_query(1));
        pop.client_mut(0).on_report_into(t(20.0), &prep, &mut acts);
        pop.start_query(1, t(25.0), &(0..9).map(ItemId).collect::<Vec<_>>());
        assert!(pop.arena().nodes_allocated() > after_first, "block grew");
        // A follow-up query that fits reuses the block: no new nodes.
        let sized = pop.arena().nodes_allocated();
        pop.client_mut(1).on_report_into(t(40.0), &prep, &mut acts);
        for k in 0..9 {
            pop.client_mut(1)
                .on_data_into(t(41.0), ItemId(k), SimTime::ZERO, &mut acts);
        }
        pop.start_query(1, t(45.0), &items[..3]);
        assert_eq!(pop.arena().nodes_allocated(), sized, "capacity reused");
        // Client 0 still tracks its own two items.
        assert!(pop.has_pending_query(0));
    }

    /// The connected bitmap mirrors the bool column through the
    /// pop-level disconnect/reconnect wrappers, with tail bits zero.
    #[test]
    fn connected_bitmap_mirrors_column() {
        let n = 70; // crosses a word boundary
        let mut pop = ClientPop::new(cfg(Scheme::Aaw), n);
        let check = |pop: &ClientPop| {
            for (i, &c) in pop.connected_col().iter().enumerate() {
                let bit = pop.connected_words()[i / 64] & (1 << (i % 64)) != 0;
                assert_eq!(bit, c, "client {i}");
            }
            let tail: u32 = pop.connected_words()[n / 64].count_ones();
            assert!(tail as usize <= n % 64, "tail bits beyond len set");
        };
        check(&pop);
        pop.disconnect(3, t(1.0));
        pop.disconnect(64, t(1.0));
        pop.disconnect(69, t(1.0));
        check(&pop);
        assert!(!pop.is_connected(64));
        pop.reconnect(64, t(5.0));
        check(&pop);
        assert!(pop.is_connected(64));
    }

    /// Cell membership bitmaps mirror the cell column through the
    /// serial `handoff` wrapper; exactly one cell owns each client.
    #[test]
    fn cell_bitmaps_mirror_column() {
        let n = 70; // crosses a word boundary
        let cells = 3;
        let mut pop = ClientPop::with_cells(cfg(Scheme::Aaw), n, cells);
        let check = |pop: &ClientPop| {
            for i in 0..n {
                let owner = pop.cell_of(i);
                for c in 0..cells {
                    let bit = pop.cell_words(c)[i / 64] & (1 << (i % 64)) != 0;
                    assert_eq!(bit, c == owner, "client {i} cell {c}");
                }
            }
            for c in 0..cells {
                let tail = pop.cell_words(c)[n / 64] >> (n % 64);
                assert_eq!(tail, 0, "tail bits beyond len set in cell {c}");
            }
        };
        check(&pop);
        assert_eq!(pop.cell_of(0), 0);
        assert_eq!(pop.cell_of(1), 1);
        assert_eq!(pop.cell_of(5), 2);
        pop.handoff(0, 2);
        pop.handoff(64, 0);
        pop.handoff(69, 1);
        check(&pop);
        assert_eq!(pop.cell_of(0), 2);
        // Re-associating with the current cell is a no-op.
        pop.handoff(0, 2);
        check(&pop);
        // The legacy constructor is the single-cell special case: the
        // one membership bitmap equals the initial connected bitmap.
        let single = ClientPop::new(cfg(Scheme::Aaw), n);
        assert_eq!(single.cells(), 1);
        assert_eq!(single.cell_words(0), single.connected_words());
    }

    /// `PopPtr` views over disjoint indices mirror `client_mut`.
    #[test]
    fn pop_ptr_views_match_serial_views() {
        let mut pop = ClientPop::new(cfg(Scheme::SimpleChecking), 4);
        for i in 0..4 {
            pop.start_query(i, t(1.0), &[ItemId(i as u32)]);
        }
        let payload = window(20.0, -180.0, vec![]);
        let prepared = payload.prepare();
        let ptr = pop.as_ptr();
        let mut actions: Vec<Vec<ClientAction>> = vec![Vec::new(); 4];
        for (i, acts) in actions.iter_mut().enumerate() {
            // SAFETY: indices are disjoint and the pop is not otherwise
            // touched while the views are live.
            let mut view = unsafe { ptr.client_mut(i) };
            view.on_report_into(t(20.0), &prepared, acts);
        }
        for (i, acts) in actions.iter().enumerate() {
            assert_eq!(
                acts,
                &vec![ClientAction::Uplink(UplinkKind::QueryRequest {
                    item: ItemId(i as u32)
                })]
            );
        }
    }
}
