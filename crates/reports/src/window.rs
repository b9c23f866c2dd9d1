//! The `TS` (broadcasting timestamps) window report — §2.1 of the paper —
//! and the AAW enlarged-window variant (§3.2).
//!
//! The report broadcast at time `T` carries the current timestamp and the
//! list of `(oid, t_oid)` pairs for every item updated in the covered
//! window `[window_start, T]`; in the plain scheme `window_start = T − w·L`.
//! AAW may *enlarge* the window back to the oldest pending client `Tlb`;
//! the enlargement is signalled in-band with a single **dummy record**
//! `(dummy_id, Tlb)` (the window size itself is deliberately not carried —
//! §3.2: "to keep the invalidation report size small, we do not explicitly
//! include in each report the window size").
//!
//! Client algorithm (Figure 1 of the paper):
//!
//! ```text
//! if Tlb < Ti − L·w:            drop the entire cache
//! else: for every cached oj:
//!     if oj ∈ IR and tc_j < t_j: throw oj out of the cache
//!     else:                      tc_j ← Ti        (revalidate)
//! ```

use mobicache_model::msg::SizeParams;
use mobicache_model::units::Bits;
use mobicache_model::ItemId;
use mobicache_sim::SimTime;

/// A `TS` window invalidation report.
///
/// ```
/// use mobicache_model::ItemId;
/// use mobicache_reports::{WindowDecision, WindowReport};
/// use mobicache_sim::SimTime;
///
/// let t = SimTime::from_secs;
/// let report = WindowReport {
///     broadcast_at: t(1000.0),
///     window_start: t(800.0), // w·L = 200 s of history
///     records: vec![(ItemId(4), t(950.0))],
///     dummy: None,
/// };
/// // In-window client: drop exactly the stale entry.
/// assert_eq!(
///     report.decide(t(900.0), vec![(ItemId(4), t(100.0)), (ItemId(9), t(100.0))]),
///     WindowDecision::Invalidate(vec![ItemId(4)])
/// );
/// // A client that slept past the window cannot be served.
/// assert_eq!(
///     report.decide(t(700.0), vec![(ItemId(9), t(100.0))]),
///     WindowDecision::NotCovered
/// );
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WindowReport {
    /// Broadcast timestamp `T_i`.
    pub broadcast_at: SimTime,
    /// Start of the covered window: every update with timestamp
    /// `> window_start` is listed in `records`.
    pub window_start: SimTime,
    /// `(oid, latest update timestamp)` for every item updated in the
    /// window — at most one record per item.
    pub records: Vec<(ItemId, SimTime)>,
    /// AAW enlargement marker: `Some(tlb)` means this report's window was
    /// enlarged back to `tlb` and carries the dummy record
    /// `(dummy_id, tlb)`. `None` for a plain `TS` report.
    pub dummy: Option<SimTime>,
}

/// What a client should do with its cache after receiving a
/// [`WindowReport`].
#[derive(Clone, Debug, PartialEq)]
pub enum WindowDecision {
    /// The report does not reach back to the client's `Tlb`; nothing can
    /// be salvaged through this report alone. (A plain-`TS` client drops
    /// its cache; an adaptive client uplinks its `Tlb` instead.)
    NotCovered,
    /// The report covers the client's `Tlb`: drop exactly the listed
    /// items, keep and revalidate the rest.
    Invalidate(Vec<ItemId>),
}

/// A build-once lookup index over a [`WindowReport`]'s records: the
/// records sorted by item id, queried by binary search.
///
/// Built once per report and shared by every client it is applied to —
/// each client's Figure-1 pass is then `O(|cache| · log |records|)` with
/// no per-client allocation, instead of the reference algorithm's
/// `O(|cache| · |records|)` scan. The engine's fan-out probes the dense
/// listed bitmap and timestamp table of a [`crate::PlanCache`] instead.
#[derive(Clone, Debug)]
pub struct WindowIndex {
    /// Records sorted by item id (at most one record per item).
    sorted: Vec<(ItemId, SimTime)>,
}

impl WindowIndex {
    /// Builds the index: `O(|records| · log |records|)`, once per report.
    pub fn build(report: &WindowReport) -> Self {
        let mut sorted = report.records.clone();
        sorted.sort_unstable_by_key(|&(id, _)| id);
        WindowIndex { sorted }
    }

    /// The listed update timestamp for `item`, if the window lists it.
    #[inline]
    pub fn updated_at(&self, item: ItemId) -> Option<SimTime> {
        self.sorted
            .binary_search_by_key(&item, |&(id, _)| id)
            .ok()
            .map(|pos| self.sorted[pos].1)
    }

    /// `true` when the report proves a cached copy at `version` stale.
    #[inline]
    pub fn is_stale(&self, item: ItemId, version: SimTime) -> bool {
        self.updated_at(item).is_some_and(|t| version < t)
    }

    /// Appends every provably stale cached entry to `out` (which is not
    /// cleared) — the allocation-free fan-out primitive behind
    /// [`WindowReport::stale_items`].
    pub fn stale_into<I>(&self, cached: I, out: &mut Vec<ItemId>)
    where
        I: IntoIterator<Item = (ItemId, SimTime)>,
    {
        for (item, version) in cached {
            if self.is_stale(item, version) {
                out.push(item);
            }
        }
    }
}

impl WindowReport {
    /// `true` when this report's history reaches back to `tlb`, i.e. every
    /// update that happened after `tlb` is listed.
    ///
    /// Coverage comes from either the window itself (`tlb ≥ window_start`)
    /// or, for an enlarged report, the dummy record (`dummy ≤ tlb`). The
    /// dummy path is exactly the client check in Figure 4 of the paper.
    pub fn covers(&self, tlb: SimTime) -> bool {
        if tlb >= self.window_start {
            return true;
        }
        match self.dummy {
            Some(dummy_tlb) => dummy_tlb <= tlb,
            None => false,
        }
    }

    /// Builds the shared lookup index for this report. Build once, apply
    /// to every client of the broadcast fan-out.
    pub fn index(&self) -> WindowIndex {
        WindowIndex::build(self)
    }

    /// Runs the Figure-1 client algorithm for a client whose last report
    /// was at `tlb`, over a cache view of `(item, version)` pairs, where
    /// `version` is the timestamp of the last update the cached copy
    /// reflects.
    ///
    /// Returns [`WindowDecision::NotCovered`] when the report cannot
    /// vouch for the missed period; the caller decides between dropping
    /// (plain `TS`) and uplinking `Tlb` (adaptive schemes).
    ///
    /// Thin wrapper over the indexed path (builds a throwaway
    /// [`WindowIndex`]); callers applying one report to many caches
    /// should build the index once and use [`WindowReport::decide_with`].
    pub fn decide<I>(&self, tlb: SimTime, cached: I) -> WindowDecision
    where
        I: IntoIterator<Item = (ItemId, SimTime)>,
    {
        self.decide_with(&self.index(), tlb, cached)
    }

    /// The obviously-correct reference implementation of
    /// [`WindowReport::decide`]: a linear `records` scan per cached item,
    /// `O(|cache| · |records|)`. Kept for property tests (the indexed
    /// path must agree with it exactly) and as the baseline side of the
    /// tick fan-out micro-benchmark.
    pub fn decide_linear<I>(&self, tlb: SimTime, cached: I) -> WindowDecision
    where
        I: IntoIterator<Item = (ItemId, SimTime)>,
    {
        if !self.covers(tlb) {
            return WindowDecision::NotCovered;
        }
        let mut stale = Vec::new();
        for (item, version) in cached {
            if let Some(&(_, updated_at)) = self.records.iter().find(|(id, _)| *id == item) {
                if version < updated_at {
                    stale.push(item);
                }
            }
        }
        WindowDecision::Invalidate(stale)
    }

    /// Like [`WindowReport::decide`] but with an index for large reports —
    /// `O(cache · log records)` instead of `O(cache · records)`. Builds
    /// the index per call; [`WindowReport::decide_with`] amortizes it.
    pub fn decide_indexed<I>(&self, tlb: SimTime, cached: I) -> WindowDecision
    where
        I: IntoIterator<Item = (ItemId, SimTime)>,
    {
        self.decide_with(&self.index(), tlb, cached)
    }

    /// The fan-out form of [`WindowReport::decide`]: applies this report
    /// through a prebuilt [`WindowIndex`] (`idx` must be built from this
    /// report).
    pub fn decide_with<I>(&self, idx: &WindowIndex, tlb: SimTime, cached: I) -> WindowDecision
    where
        I: IntoIterator<Item = (ItemId, SimTime)>,
    {
        if !self.covers(tlb) {
            return WindowDecision::NotCovered;
        }
        let mut stale = Vec::new();
        idx.stale_into(cached, &mut stale);
        WindowDecision::Invalidate(stale)
    }

    /// Lists the cached entries this report *proves* stale — a pure
    /// version comparison against the records, ignoring coverage. Always
    /// sound to apply: a record `(oid, t)` with `t >` the cached version
    /// is a definite update the copy misses. Used for partial application
    /// while a reconnection gap is pending (the gap only prevents
    /// *re-validating* entries, not dropping provably stale ones).
    ///
    /// Builds a throwaway index; the fan-out path uses
    /// [`WindowIndex::stale_into`] with a shared index and scratch buffer.
    pub fn stale_items<I>(&self, cached: I) -> Vec<ItemId>
    where
        I: IntoIterator<Item = (ItemId, SimTime)>,
    {
        let mut stale = Vec::new();
        self.index().stale_into(cached, &mut stale);
        stale
    }

    /// Report body size in bits: `n_w · (log₂N + b_T)` (§3.1) plus the
    /// current timestamp, plus one more record if the dummy is present.
    pub fn size_bits(&self, p: &SizeParams) -> Bits {
        let n_records = self.records.len() as f64 + if self.dummy.is_some() { 1.0 } else { 0.0 };
        p.timestamp_bits + n_records * p.record_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn report(records: Vec<(u32, f64)>) -> WindowReport {
        WindowReport {
            broadcast_at: t(1000.0),
            window_start: t(800.0),
            records: records
                .into_iter()
                .map(|(id, ts)| (ItemId(id), t(ts)))
                .collect(),
            dummy: None,
        }
    }

    #[test]
    fn covered_client_invalidates_exactly_the_stale_items() {
        let r = report(vec![(1, 950.0), (2, 900.0)]);
        // Cached: item 1 fetched before its update (stale), item 2 fetched
        // after (fresh), item 3 never updated.
        let cache = vec![
            (ItemId(1), t(850.0)),
            (ItemId(2), t(920.0)),
            (ItemId(3), t(100.0)),
        ];
        match r.decide(t(900.0), cache) {
            WindowDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(1)]),
            other => panic!("expected Invalidate, got {other:?}"),
        }
    }

    #[test]
    fn out_of_window_client_is_not_covered() {
        let r = report(vec![(1, 950.0)]);
        assert_eq!(
            r.decide(t(700.0), vec![(ItemId(1), t(650.0))]),
            WindowDecision::NotCovered
        );
    }

    #[test]
    fn window_boundary_is_inclusive() {
        let r = report(vec![]);
        assert!(r.covers(t(800.0)));
        assert!(!r.covers(t(799.999)));
    }

    #[test]
    fn dummy_record_extends_coverage() {
        let mut r = report(vec![(4, 700.0)]);
        r.dummy = Some(t(600.0));
        // Client with Tlb=650: outside the window but after the dummy.
        assert!(r.covers(t(650.0)));
        match r.decide(t(650.0), vec![(ItemId(4), t(640.0))]) {
            WindowDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(4)]),
            other => panic!("{other:?}"),
        }
        // Client with Tlb=500: before even the dummy — still uncovered.
        assert!(!r.covers(t(500.0)));
    }

    #[test]
    fn equal_version_and_update_is_fresh() {
        // A copy fetched at exactly the update instant reflects it.
        let r = report(vec![(9, 900.0)]);
        match r.decide(t(900.0), vec![(ItemId(9), t(900.0))]) {
            WindowDecision::Invalidate(stale) => assert!(stale.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn indexed_matches_reference() {
        let r = report(vec![(5, 990.0), (1, 950.0), (3, 810.0)]);
        let cache = vec![
            (ItemId(0), t(100.0)),
            (ItemId(1), t(960.0)),
            (ItemId(3), t(500.0)),
            (ItemId(5), t(985.0)),
        ];
        assert_eq!(
            r.decide_linear(t(900.0), cache.clone()),
            r.decide_indexed(t(900.0), cache.clone())
        );
        assert_eq!(
            r.decide_linear(t(900.0), cache.clone()),
            r.decide(t(900.0), cache)
        );
    }

    #[test]
    fn shared_index_reuses_across_clients() {
        let r = report(vec![(5, 990.0), (1, 950.0), (3, 810.0)]);
        let idx = r.index();
        assert_eq!(idx.updated_at(ItemId(5)), Some(t(990.0)));
        assert_eq!(idx.updated_at(ItemId(4)), None);
        assert!(idx.is_stale(ItemId(1), t(940.0)));
        assert!(!idx.is_stale(ItemId(1), t(950.0)), "equal version is fresh");
        // Two different caches through one index, scratch reused.
        let mut scratch = Vec::new();
        idx.stale_into(vec![(ItemId(1), t(940.0))], &mut scratch);
        assert_eq!(scratch, vec![ItemId(1)]);
        scratch.clear();
        idx.stale_into(vec![(ItemId(3), t(900.0))], &mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(
            r.decide_with(&idx, t(900.0), vec![(ItemId(5), t(100.0))]),
            WindowDecision::Invalidate(vec![ItemId(5)])
        );
        assert_eq!(
            r.decide_with(&idx, t(700.0), vec![(ItemId(5), t(100.0))]),
            WindowDecision::NotCovered
        );
    }

    #[test]
    fn size_formula() {
        let p = SizeParams {
            db_size: 1024,
            group_count: 64,
            timestamp_bits: 48.0,
            header_bits: 64.0,
            control_bytes: 512,
            item_bytes: 8192,
        };
        let mut r = report(vec![(1, 900.0), (2, 910.0), (3, 920.0)]);
        // 3 records * (10 + 48) + 48.
        assert_eq!(r.size_bits(&p), 3.0 * 58.0 + 48.0);
        r.dummy = Some(t(100.0));
        assert_eq!(r.size_bits(&p), 4.0 * 58.0 + 48.0);
    }

    #[test]
    fn empty_report_still_covers_its_window() {
        let r = report(vec![]);
        match r.decide(t(900.0), vec![(ItemId(7), t(10.0))]) {
            WindowDecision::Invalidate(stale) => assert!(stale.is_empty()),
            other => panic!("{other:?}"),
        }
    }
}
