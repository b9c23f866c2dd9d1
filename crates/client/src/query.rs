//! Pending query bookkeeping.
//!
//! Since the struct-of-arrays client core, per-item progress lives in a
//! shared [`PendingArena`](crate::PendingArena) (one contiguous block
//! per client) and the per-query scalars live in a small Copy
//! [`QueryHeader`]. The header's methods take the client's item slice
//! as a parameter instead of owning a `Vec<PendingItem>`, so a million
//! concurrent queries cost zero per-query allocations. (The previous
//! owning `QueryState` type was removed in this redesign.)

use mobicache_model::ItemId;
use mobicache_sim::SimTime;

/// How one referenced item is currently being resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PendingState {
    /// Waiting for the next invalidation report (every query starts
    /// here — §2: "to answer a query, the client … will listen to the
    /// next invalidation report").
    WaitReport,
    /// A validity check for this (cached but limbo) item is in flight.
    WaitValidity,
    /// A data request for this item is in flight.
    WaitData,
    /// Answered (from cache or by download).
    Done,
}

/// One item referenced by the pending query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingItem {
    /// The referenced item.
    pub item: ItemId,
    /// Resolution progress.
    pub state: PendingState,
    /// When the in-flight data/validity request went up (fault-injection
    /// retry timer; `None` while waiting passively on reports).
    pub requested_at: Option<SimTime>,
    /// Re-sends of the in-flight request so far (capped backoff).
    pub retries: u32,
}

impl PendingItem {
    /// A fresh wait-for-report entry for `item`.
    #[inline]
    pub fn fresh(item: ItemId) -> Self {
        PendingItem {
            item,
            state: PendingState::WaitReport,
            requested_at: None,
            retries: 0,
        }
    }
}

/// Summary of a completed query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryOutcome {
    /// When the query was issued.
    pub issued_at: SimTime,
    /// When the last referenced item was resolved.
    pub completed_at: SimTime,
    /// Items answered from the cache.
    pub hits: u32,
    /// Items downloaded from the server.
    pub misses: u32,
}

/// The per-query scalars of a query in progress.
///
/// The referenced items themselves live in the owning population's
/// pending arena; the header only knows how many there are and how many
/// are still waiting for a report or unresolved. Every method that
/// inspects or advances per-item state takes the client's item slice
/// as a parameter, and the state-changing methods keep those two counts
/// in step, so a report can skip a query with nothing waiting on it
/// without loading the arena block.
#[derive(Clone, Copy, Debug)]
pub struct QueryHeader {
    /// When the query was issued.
    pub issued_at: SimTime,
    /// Number of referenced items (the length of the arena block's
    /// active prefix).
    pub len: u32,
    /// Cache hits so far.
    pub hits: u32,
    /// Downloads so far.
    pub misses: u32,
    /// Items in [`PendingState::WaitReport`].
    waiting: u32,
    /// Items not yet [`PendingState::Done`].
    open: u32,
}

impl QueryHeader {
    /// A fresh header over `len` items.
    pub fn new(issued_at: SimTime, len: u32) -> Self {
        assert!(len > 0, "a query must reference at least one item");
        QueryHeader {
            issued_at,
            len,
            hits: 0,
            misses: 0,
            waiting: len,
            open: len,
        }
    }

    /// Items still waiting for the next invalidation report.
    pub(crate) fn waiting(&self) -> u32 {
        self.waiting
    }

    /// `true` when every referenced item is resolved.
    pub fn is_complete(&self, items: &[PendingItem]) -> bool {
        debug_assert_eq!(items.len(), self.len as usize);
        debug_assert_eq!(
            self.open == 0,
            items.iter().all(|p| p.state == PendingState::Done),
            "open count out of step with the items"
        );
        self.open == 0
    }

    /// Moves the counts for one item going from state `from` to `to`.
    fn move_counts(&mut self, from: PendingState, to: PendingState) {
        let waits = |s| u32::from(s == PendingState::WaitReport);
        let opens = |s| u32::from(s != PendingState::Done);
        self.waiting = self.waiting - waits(from) + waits(to);
        self.open = self.open - opens(from) + opens(to);
    }

    /// Marks `item` done as a hit or miss. Returns `false` if the item is
    /// not pending in the expected state.
    pub fn resolve(
        &mut self,
        items: &mut [PendingItem],
        item: ItemId,
        from: PendingState,
        hit: bool,
    ) -> bool {
        for p in items {
            if p.item == item && p.state == from {
                p.state = PendingState::Done;
                self.move_counts(from, PendingState::Done);
                if hit {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                return true;
            }
        }
        false
    }

    /// Moves `item` from one pending state to another. Returns `false` if
    /// it is not in the expected state.
    pub fn transition(
        &mut self,
        items: &mut [PendingItem],
        item: ItemId,
        from: PendingState,
        to: PendingState,
    ) -> bool {
        for p in items {
            if p.item == item && p.state == from {
                p.state = to;
                self.move_counts(from, to);
                return true;
            }
        }
        false
    }

    /// Like [`QueryHeader::transition`], but also stamps the transitioned
    /// item's request timestamp (and resets its retry count) — used when
    /// the transition puts a request on the uplink, so the
    /// fault-injection retry timer knows when it went up.
    pub fn transition_at(
        &mut self,
        items: &mut [PendingItem],
        item: ItemId,
        from: PendingState,
        to: PendingState,
        now: SimTime,
    ) -> bool {
        for p in items {
            if p.item == item && p.state == from {
                p.state = to;
                self.move_counts(from, to);
                p.requested_at = Some(now);
                p.retries = 0;
                return true;
            }
        }
        false
    }

    /// Finishes the query into an outcome summary.
    pub fn outcome(&self, items: &[PendingItem], completed_at: SimTime) -> QueryOutcome {
        debug_assert!(self.is_complete(items));
        QueryOutcome {
            issued_at: self.issued_at,
            completed_at,
            hits: self.hits,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn query(issued_at: SimTime, ids: &[u32]) -> (QueryHeader, Vec<PendingItem>) {
        let items: Vec<PendingItem> = ids.iter().map(|&i| PendingItem::fresh(ItemId(i))).collect();
        (QueryHeader::new(issued_at, items.len() as u32), items)
    }

    #[test]
    fn lifecycle_single_item_hit() {
        let (mut q, mut items) = query(t(1.0), &[4]);
        assert!(!q.is_complete(&items));
        assert!(q.resolve(&mut items, ItemId(4), PendingState::WaitReport, true));
        assert!(q.is_complete(&items));
        let o = q.outcome(&items, t(5.0));
        assert_eq!((o.hits, o.misses), (1, 0));
        assert_eq!(o.issued_at, t(1.0));
        assert_eq!(o.completed_at, t(5.0));
    }

    #[test]
    fn lifecycle_multi_item_mixed() {
        let (mut q, mut items) = query(t(0.0), &[1, 2, 3]);
        assert!(q.resolve(&mut items, ItemId(1), PendingState::WaitReport, true));
        assert!(q.transition(
            &mut items,
            ItemId(2),
            PendingState::WaitReport,
            PendingState::WaitData
        ));
        assert!(q.transition(
            &mut items,
            ItemId(3),
            PendingState::WaitReport,
            PendingState::WaitValidity
        ));
        assert!(!q.is_complete(&items));
        assert!(q.resolve(&mut items, ItemId(2), PendingState::WaitData, false));
        assert!(q.resolve(&mut items, ItemId(3), PendingState::WaitValidity, true));
        assert!(q.is_complete(&items));
        let o = q.outcome(&items, t(9.0));
        assert_eq!((o.hits, o.misses), (2, 1));
    }

    #[test]
    fn resolve_rejects_wrong_state() {
        let (mut q, mut items) = query(t(0.0), &[1]);
        assert!(!q.resolve(&mut items, ItemId(1), PendingState::WaitData, false));
        assert!(!q.resolve(&mut items, ItemId(9), PendingState::WaitReport, false));
    }

    #[test]
    fn transition_at_stamps_retry_timer() {
        let (mut q, mut items) = query(t(0.0), &[1]);
        assert!(q.transition_at(
            &mut items,
            ItemId(1),
            PendingState::WaitReport,
            PendingState::WaitData,
            t(3.0)
        ));
        assert_eq!(items[0].requested_at, Some(t(3.0)));
        assert_eq!(items[0].retries, 0);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_query_rejected() {
        QueryHeader::new(t(0.0), 0);
    }

    /// `(waiting, open)` recounted from the item slice.
    fn recount(items: &[PendingItem]) -> (u32, u32) {
        let waiting = items.iter().filter(|p| p.state == PendingState::WaitReport);
        let open = items.iter().filter(|p| p.state != PendingState::Done);
        (waiting.count() as u32, open.count() as u32)
    }

    #[test]
    fn counts_follow_each_move() {
        use PendingState::*;
        let (mut q, mut items) = query(t(0.0), &[1, 2, 3]);
        assert_eq!((q.waiting, q.open), (3, 3));
        assert!(q.transition(&mut items, ItemId(1), WaitReport, WaitData));
        assert_eq!((q.waiting, q.open), (2, 3));
        assert!(q.transition_at(&mut items, ItemId(2), WaitReport, WaitValidity, t(1.0)));
        assert_eq!((q.waiting, q.open), (1, 3));
        assert!(q.resolve(&mut items, ItemId(3), WaitReport, true));
        assert_eq!((q.waiting, q.open), (0, 2));
        assert!(q.transition(&mut items, ItemId(2), WaitValidity, WaitData));
        assert_eq!((q.waiting, q.open), (0, 2));
        assert!(q.resolve(&mut items, ItemId(1), WaitData, false));
        assert_eq!((q.waiting, q.open), (0, 1));
        assert!(!q.is_complete(&items));
        assert!(q.resolve(&mut items, ItemId(2), WaitData, false));
        assert_eq!((q.waiting, q.open), (0, 0));
        assert!(q.is_complete(&items));
    }

    #[test]
    fn rejected_moves_leave_counts_alone() {
        use PendingState::*;
        let (mut q, mut items) = query(t(0.0), &[1, 2]);
        assert!(q.resolve(&mut items, ItemId(1), WaitReport, true));
        let before = (q.waiting, q.open, q.hits, q.misses);
        assert!(!q.resolve(&mut items, ItemId(1), WaitReport, true));
        assert!(!q.transition(&mut items, ItemId(2), WaitData, Done));
        assert!(!q.transition_at(&mut items, ItemId(9), WaitReport, WaitData, t(1.0)));
        assert_eq!((q.waiting, q.open, q.hits, q.misses), before);
        assert_eq!((q.waiting, q.open), recount(&items));
    }

    #[test]
    fn moves_back_to_waiting_reopen_the_counts() {
        use PendingState::*;
        let (mut q, mut items) = query(t(0.0), &[4, 4]);
        assert!(q.resolve(&mut items, ItemId(4), WaitReport, false));
        assert!(q.transition(&mut items, ItemId(4), WaitReport, Done));
        assert!(q.is_complete(&items));
        assert!(q.transition(&mut items, ItemId(4), Done, WaitReport));
        assert_eq!((q.waiting, q.open), (1, 1));
        assert!(!q.is_complete(&items));
    }

    const STATES: [PendingState; 4] = [
        PendingState::WaitReport,
        PendingState::WaitValidity,
        PendingState::WaitData,
        PendingState::Done,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Any sequence of moves, accepted or rejected, over a query
        /// that may name an item twice keeps both counts equal to a
        /// recount, and `is_complete` true exactly when every item is
        /// done.
        #[test]
        fn counts_match_a_recount_after_every_move(
            ids in proptest::collection::vec(0u32..4, 1..7),
            moves in proptest::collection::vec(
                (0u8..3, 0u32..4, 0usize..4, 0usize..4, proptest::any::<bool>()),
                0..48,
            ),
        ) {
            let (mut q, mut items) = query(t(0.0), &ids);
            for (step, &(kind, id, from, to, hit)) in moves.iter().enumerate() {
                let (item, from, to) = (ItemId(id), STATES[from], STATES[to]);
                match kind {
                    0 => q.resolve(&mut items, item, from, hit),
                    1 => q.transition(&mut items, item, from, to),
                    _ => q.transition_at(&mut items, item, from, to, t(step as f64)),
                };
                proptest::prop_assert_eq!((q.waiting, q.open), recount(&items), "step {}", step);
                let all_done = items.iter().all(|p| p.state == PendingState::Done);
                proptest::prop_assert_eq!(q.is_complete(&items), all_done, "step {}", step);
            }
        }
    }
}
