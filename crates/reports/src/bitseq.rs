//! The bit-sequences (`BS`) invalidation report — §2.3 of the paper,
//! after Jing et al.
//!
//! The report is a hierarchy of bit sequences `B_n, B_{n-1}, …, B_1` plus a
//! dummy `B_0`. `B_n` has `N` bits (one per database item) of which up to
//! `N/2` are set, marking the `N/2` most recently updated items;
//! `TS(B_n)` is the time after which exactly those items were updated.
//! Each subsequent sequence `B_k` has half the bits — its `k`-th bit
//! corresponds to the `k`-th "1" in `B_{k+1}` — and marks the half of
//! *those* items updated after the (more recent) `TS(B_k)`. `TS(B_0)` is
//! the time of the most recent update (nothing changed after it).
//!
//! Observation used throughout this implementation: the entire structure
//! is equivalent to the **recency-ordered prefix list** of updated items
//! with cut timestamps at halving prefix lengths. The "1"s of `B_k` are
//! exactly the `|B_k|/2` most recently updated items, so a level is fully
//! described by `(prefix_len, cut_ts)` over one shared recency-sorted
//! array. The bit-level wire encoding (for size verification) is produced
//! by [`BitSequences::encode_wire`].
//!
//! Client algorithm (Figure 2 of the paper):
//!
//! ```text
//! if TS(B_0) ≤ Tlb:                 nothing to invalidate
//! if Tlb < TS(B_n):                 drop the entire cache
//! else: locate B_j with TS(B_j) ≤ Tlb < TS(B_{j-1});
//!       invalidate every item marked in B_j
//! ```

use mobicache_model::msg::SizeParams;
use mobicache_model::units::{bits_per_id, Bits};
use mobicache_model::ItemId;
use mobicache_sim::SimTime;

/// One level of the hierarchy: the `prefix_len` most recently updated
/// items were all updated after `cut`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Level {
    /// Number of marked ("1") items at this level.
    pub prefix_len: u32,
    /// `TS(B_k)`: `None` means the level reaches back to the beginning of
    /// time (fewer items have ever been updated than the level can mark),
    /// so it covers any `Tlb`.
    pub cut: Option<SimTime>,
}

impl Level {
    /// `true` when this level's history reaches back to `tlb`.
    #[inline]
    fn covers(&self, tlb: SimTime) -> bool {
        match self.cut {
            None => true,
            Some(cut) => cut <= tlb,
        }
    }
}

/// A bit-sequences invalidation report.
///
/// ```
/// use mobicache_model::ItemId;
/// use mobicache_reports::{BitSequences, BsDecision};
/// use mobicache_sim::SimTime;
///
/// let t = SimTime::from_secs;
/// // Items 7 and 3 were updated (most recent first) in a 16-item DB.
/// let bs = BitSequences::from_recency(
///     t(100.0),
///     16,
///     vec![(ItemId(7), t(90.0)), (ItemId(3), t(40.0))],
/// );
/// // A client last synced at t=50 caching items 3 and 7: only item 7
/// // changed afterwards, and the hierarchy pinpoints it.
/// assert_eq!(
///     bs.decide(t(50.0), vec![ItemId(3), ItemId(7)]),
///     BsDecision::Invalidate(vec![ItemId(7)])
/// );
/// // A fully current client is told its cache is clean.
/// assert_eq!(bs.decide(t(95.0), vec![ItemId(3)]), BsDecision::Clean);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BitSequences {
    /// Broadcast timestamp `T_i`.
    pub broadcast_at: SimTime,
    /// Database size `N` (determines the level geometry and wire size).
    pub db_size: u32,
    /// `TS(B_0)`: time of the most recent update; `None` when no item has
    /// ever been updated.
    pub latest_update: Option<SimTime>,
    /// Updated items, most recent first, truncated to `N/2` entries
    /// (the "1"s of `B_n`).
    pub recency: Vec<(ItemId, SimTime)>,
    /// Levels ordered from the smallest prefix (`B_1`) to the largest
    /// (`B_n`).
    pub levels: Vec<Level>,
}

/// What a client should do with its cache after receiving a
/// [`BitSequences`] report.
#[derive(Clone, Debug, PartialEq)]
pub enum BsDecision {
    /// `TS(B_0) ≤ Tlb`: no update since the client's last report; the
    /// whole cache is valid.
    Clean,
    /// `Tlb < TS(B_n)`: more than half the database may have changed; the
    /// entire cache must be dropped.
    DropAll,
    /// Invalidate exactly the listed items (the marked prefix of the
    /// smallest covering level); everything else is revalidated.
    Invalidate(Vec<ItemId>),
}

/// The cache-independent part of the Figure-2 algorithm: which level (if
/// any) covers a given `Tlb`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BsSelect {
    /// No update since `Tlb`; the whole cache is valid.
    Clean,
    /// Even `B_n` is too recent; drop everything.
    DropAll,
    /// The smallest covering level marks this many most-recent items:
    /// a cached item is stale iff its recency rank is below this.
    Prefix(usize),
}

/// A build-once lookup index over a [`BitSequences`] report: each listed
/// item's recency rank, sorted by item id. A cached item is stale at a
/// selected level exactly when its rank is inside the level's prefix, so
/// the per-client pass is `O(|cache| · log |recency|)` with no
/// allocation — no per-client `HashSet` of the whole cache. The engine's
/// fan-out reads the same ranks from the dense column of a
/// [`crate::PlanCache`] instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BsIndex {
    /// `(item, recency rank)`, sorted by item id.
    by_id: Vec<(ItemId, u32)>,
}

impl BsIndex {
    /// Builds the index: `O(|recency| · log |recency|)`, once per report.
    pub fn build(report: &BitSequences) -> Self {
        let mut by_id: Vec<(ItemId, u32)> = report
            .recency
            .iter()
            .enumerate()
            .map(|(rank, &(id, _))| (id, rank as u32))
            .collect();
        by_id.sort_unstable_by_key(|&(id, _)| id);
        BsIndex { by_id }
    }

    /// The recency rank of `item` (0 = most recently updated), if listed.
    #[inline]
    pub fn rank(&self, item: ItemId) -> Option<u32> {
        self.by_id
            .binary_search_by_key(&item, |&(id, _)| id)
            .ok()
            .map(|pos| self.by_id[pos].1)
    }

    /// `true` when `item` is marked at a level of `prefix_len` "1"s.
    #[inline]
    pub fn is_marked(&self, item: ItemId, prefix_len: usize) -> bool {
        self.rank(item).is_some_and(|r| (r as usize) < prefix_len)
    }
}

impl BitSequences {
    /// The halving level geometry for a database of `n` items: prefix
    /// lengths `1, 2, …` doubling up to `n/2` (ordered smallest first).
    ///
    /// For `n < 2` there are no levels — the dummy `B_0` alone decides.
    pub fn level_lengths(n: u32) -> Vec<u32> {
        let mut lens = Vec::new();
        let top = n / 2;
        let mut len = 1u32;
        while len < top {
            lens.push(len);
            len *= 2;
        }
        if top >= 1 {
            lens.push(top);
        }
        lens
    }

    /// Builds the structure from a **recency-descending** iterator of
    /// `(item, last update time)` — the server's update index. The
    /// iterator may yield more than `N/2` entries; extras beyond the
    /// largest level (plus the one needed for its cut) are ignored.
    ///
    /// # Panics
    /// Debug-panics if the input is not sorted by descending timestamp.
    pub fn from_recency<I>(broadcast_at: SimTime, db_size: u32, iter: I) -> Self
    where
        I: IntoIterator<Item = (ItemId, SimTime)>,
    {
        let lens = Self::level_lengths(db_size);
        let top = lens.last().copied().unwrap_or(0) as usize;
        // Keep one extra entry: the (top+1)-th item's timestamp is TS(B_n).
        let mut recency: Vec<(ItemId, SimTime)> = Vec::with_capacity(top + 1);
        for entry in iter {
            if let Some(last) = recency.last() {
                debug_assert!(
                    last.1 >= entry.1,
                    "recency input must be sorted by descending timestamp"
                );
            }
            recency.push(entry);
            if recency.len() > top {
                break;
            }
        }
        let latest_update = recency.first().map(|&(_, ts)| ts);
        let overflow = recency.len() > top;
        let overflow_ts = if overflow { Some(recency[top].1) } else { None };
        recency.truncate(top);

        let levels = lens
            .iter()
            .map(|&len| {
                let cut = if (len as usize) < recency.len() {
                    Some(recency[len as usize].1)
                } else if (len as usize) == recency.len() {
                    // Exactly filled: the cut is the next (excluded) update
                    // if one exists, otherwise the beginning of time.
                    overflow_ts.filter(|_| len as usize == top).or(
                        // A non-top level exactly filled means there were
                        // no further updates at all.
                        None,
                    )
                } else {
                    None
                };
                Level {
                    prefix_len: len,
                    cut,
                }
            })
            .collect();

        BitSequences {
            broadcast_at,
            db_size,
            latest_update,
            recency,
            levels,
        }
    }

    /// Runs the Figure-2 client algorithm for a client whose last report
    /// was at `tlb`.
    ///
    /// Faithful to the paper, the invalidation is *bit-level*: every
    /// cached item marked in the selected sequence is dropped, even if the
    /// cached copy happens to be fresh (the bits carry no per-item
    /// timestamps).
    pub fn decide<I>(&self, tlb: SimTime, cached: I) -> BsDecision
    where
        I: IntoIterator<Item = ItemId>,
    {
        let prefix = match self.select(tlb) {
            BsSelect::Clean => return BsDecision::Clean,
            BsSelect::DropAll => return BsDecision::DropAll,
            BsSelect::Prefix(p) => p,
        };
        let marked: &[(ItemId, SimTime)] = &self.recency[..prefix.min(self.recency.len())];
        // O(cache + prefix): membership set over the (possibly large)
        // cache, then one scan of the marked prefix. Keeps the common
        // connected-client case (tiny prefix) cheap and the long-reconnect
        // case (prefix up to N/2) linear.
        let cached_set: std::collections::HashSet<ItemId> = cached.into_iter().collect();
        let stale: Vec<ItemId> = marked
            .iter()
            .map(|&(id, _)| id)
            .filter(|id| cached_set.contains(id))
            .collect();
        BsDecision::Invalidate(stale)
    }

    /// The cache-independent half of [`BitSequences::decide`]: resolves
    /// `Tlb` to Clean / DropAll / the smallest covering level's prefix
    /// length. Shared across the whole fan-out — each client then only
    /// tests its own cached items against the prefix via [`BsIndex`].
    pub fn select(&self, tlb: SimTime) -> BsSelect {
        match self.latest_update {
            None => return BsSelect::Clean,
            Some(latest) if latest <= tlb => return BsSelect::Clean,
            _ => {}
        }
        // Smallest level whose cut reaches back to tlb.
        match self.levels.iter().find(|l| l.covers(tlb)) {
            Some(level) => BsSelect::Prefix(level.prefix_len as usize),
            None => BsSelect::DropAll,
        }
    }

    /// Builds the shared id→rank index for this report. Build once, apply
    /// to every client of the broadcast fan-out.
    pub fn index(&self) -> BsIndex {
        BsIndex::build(self)
    }

    /// The fan-out form of [`BitSequences::decide`]: same verdict through
    /// a prebuilt [`BsIndex`] (`idx` must be built from this report).
    /// Under `Prefix`, the stale items are appended to `out` (not
    /// cleared) in `cached` order; otherwise `out` is untouched.
    pub fn decide_with<I>(
        &self,
        idx: &BsIndex,
        tlb: SimTime,
        cached: I,
        out: &mut Vec<ItemId>,
    ) -> BsSelect
    where
        I: IntoIterator<Item = ItemId>,
    {
        let sel = self.select(tlb);
        if let BsSelect::Prefix(prefix) = sel {
            for item in cached {
                if idx.is_marked(item, prefix) {
                    out.push(item);
                }
            }
        }
        sel
    }

    /// Report body size per the paper's formula: `2N + b_T · log₂N` bits
    /// (§3.1). This is what the simulator charges the downlink.
    pub fn size_bits(&self, p: &SizeParams) -> Bits {
        2.0 * self.db_size as f64 + p.timestamp_bits * bits_per_id(self.db_size as u64)
    }

    /// Exact size of the wire encoding produced by
    /// [`BitSequences::encode_wire`], in bits: `Σ |B_k|` bitmap bits plus
    /// one timestamp per level plus `TS(B_0)`.
    pub fn exact_size_bits(&self, p: &SizeParams) -> Bits {
        // The bitmap of each level is one bit per "1" of the level above:
        // the top level (`B_n`) spans the whole database; level `i` spans
        // `levels[i+1].prefix_len` bits.
        let bitmap_bits: u64 = self
            .levels
            .iter()
            .enumerate()
            .map(|(i, _)| match self.levels.get(i + 1) {
                Some(parent) => parent.prefix_len as u64,
                None => self.db_size as u64,
            })
            .sum();
        bitmap_bits as f64 + (self.levels.len() as f64 + 1.0) * p.timestamp_bits
    }

    /// Produces the literal bit-sequence encoding: for each level from
    /// `B_n` down to `B_1`, its bitmap (`B_n` over item ids ascending;
    /// deeper levels over the "1" positions of the level above, in the
    /// same order), each preceded by its 64-bit cut timestamp; then
    /// `TS(B_0)`. Used by tests to validate the size formulas and the
    /// hierarchy's self-consistency; the simulator itself only charges
    /// sizes.
    pub fn encode_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let encode_ts = |out: &mut Vec<u8>, ts: Option<SimTime>| {
            out.extend_from_slice(&ts.map_or(f64::NEG_INFINITY, SimTime::as_secs).to_be_bytes());
        };
        // Current members, ordered by item id, of the level above;
        // starts as the whole database for B_n.
        let mut above: Vec<ItemId> = (0..self.db_size).map(ItemId).collect();
        for level in self.levels.iter().rev() {
            encode_ts(&mut out, level.cut);
            let prefix = level.prefix_len as usize;
            let marked: Vec<ItemId> = {
                let mut m: Vec<ItemId> = self.recency[..prefix.min(self.recency.len())]
                    .iter()
                    .map(|&(id, _)| id)
                    .collect();
                m.sort_unstable();
                m
            };
            // Bitmap over `above`, one bit per member.
            let mut byte = 0u8;
            let mut nbits = 0;
            let mut next_above = Vec::with_capacity(marked.len());
            for &id in &above {
                let bit = marked.binary_search(&id).is_ok();
                byte = (byte << 1) | bit as u8;
                nbits += 1;
                if nbits == 8 {
                    out.push(byte);
                    byte = 0;
                    nbits = 0;
                }
                if bit {
                    next_above.push(id);
                }
            }
            if nbits > 0 {
                out.push(byte << (8 - nbits));
            }
            above = next_above;
        }
        encode_ts(&mut out, self.latest_update);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Recency list: item k updated at time 1000 - k*10 (item 0 most
    /// recent).
    fn recency(n: usize) -> Vec<(ItemId, SimTime)> {
        (0..n)
            .map(|k| (ItemId(k as u32), t(1000.0 - k as f64 * 10.0)))
            .collect()
    }

    #[test]
    fn level_geometry_power_of_two() {
        assert_eq!(BitSequences::level_lengths(16), vec![1, 2, 4, 8]);
        assert_eq!(BitSequences::level_lengths(2), vec![1]);
        assert_eq!(BitSequences::level_lengths(1), Vec::<u32>::new());
    }

    #[test]
    fn level_geometry_general() {
        assert_eq!(BitSequences::level_lengths(10), vec![1, 2, 4, 5]);
        assert_eq!(
            BitSequences::level_lengths(1000),
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 500]
        );
    }

    #[test]
    fn clean_when_no_updates_since_tlb() {
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(5));
        assert_eq!(bs.decide(t(1000.0), vec![ItemId(3)]), BsDecision::Clean);
        assert_eq!(bs.decide(t(1500.0), vec![ItemId(3)]), BsDecision::Clean);
    }

    #[test]
    fn clean_on_virgin_database() {
        let bs = BitSequences::from_recency(t(100.0), 16, vec![]);
        assert_eq!(bs.latest_update, None);
        assert_eq!(bs.decide(t(0.0), vec![ItemId(1)]), BsDecision::Clean);
    }

    #[test]
    fn selects_smallest_covering_level() {
        // 8 updated items in a DB of 16; levels 1,2,4,8.
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(9));
        // Tlb = 995: only item 0 (ts 1000) updated after; level 1 covers
        // because cut(level 1) = ts of item 1 = 990 ≤ 995.
        match bs.decide(t(995.0), vec![ItemId(0), ItemId(1), ItemId(5)]) {
            BsDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(0)]),
            other => panic!("{other:?}"),
        }
        // Tlb = 975: items 0,1,2 updated after; level 2's cut = ts of item
        // 2 = 980 > 975, so level 4 (cut = ts of item 4 = 960 ≤ 975).
        match bs.decide(t(975.0), vec![ItemId(0), ItemId(3), ItemId(5)]) {
            BsDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(0), ItemId(3)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drop_all_when_even_largest_level_is_too_recent() {
        // 9 updates, DB 16: top level 8 marks items 0..8, cut = ts of item
        // 8 = 920. A client with Tlb = 900 < 920 cannot be salvaged.
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(9));
        assert_eq!(bs.decide(t(900.0), vec![ItemId(1)]), BsDecision::DropAll);
    }

    #[test]
    fn sparse_history_covers_everything() {
        // Only 3 items ever updated in a DB of 16: level 4 (and 8) reach
        // back to the beginning of time.
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(3));
        match bs.decide(t(0.0), vec![ItemId(0), ItemId(2), ItemId(9)]) {
            BsDecision::Invalidate(stale) => {
                assert_eq!(stale, vec![ItemId(0), ItemId(2)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bit_level_invalidation_is_conservative() {
        // Item 1 is marked at the selected level even though this client's
        // copy might be fresh — the paper's BS drops it regardless.
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(9));
        match bs.decide(t(955.0), vec![ItemId(4)]) {
            // Tlb=955: level 8 is the smallest covering (cut level4 = ts
            // item 4 = 960 > 955; cut level8 = ts item 8 = 920 ≤ 955).
            BsDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(4)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_size_formula() {
        let p = SizeParams {
            db_size: 10_000,
            group_count: 64,
            timestamp_bits: 48.0,
            header_bits: 64.0,
            control_bytes: 512,
            item_bytes: 8192,
        };
        let bs = BitSequences::from_recency(t(10.0), 10_000, vec![]);
        // 2N + bT * log2 N = 20 000 + 48 * 14.
        assert_eq!(bs.size_bits(&p), 20_000.0 + 48.0 * 14.0);
    }

    #[test]
    fn wire_encoding_matches_exact_size() {
        let p = SizeParams {
            db_size: 64,
            group_count: 64,
            timestamp_bits: 64.0,
            header_bits: 0.0,
            control_bytes: 512,
            item_bytes: 8192,
        };
        let bs = BitSequences::from_recency(t(2000.0), 64, recency(40));
        let wire = bs.encode_wire();
        // Bitmap bits: levels 1,2,4,8,16,32 -> |B_k| = 2,4,8,16,32,64 =
        // 126 bits -> padded to bytes per level: 1+1+1+2+4+8 = 17 bytes.
        // Timestamps: 7 * 8 bytes.
        assert_eq!(wire.len(), 17 + 56);
        let exact = bs.exact_size_bits(&p);
        assert_eq!(exact, 126.0 + 7.0 * 64.0);
        // The paper's closed form upper-bounds the bitmap portion.
        assert!(bs.size_bits(&p) >= exact - 7.0 * 64.0);
    }

    #[test]
    fn exactly_filled_top_level_with_overflow() {
        // DB 16, 20 updates: recency truncated to 8, cut of level 8 = ts
        // of the 9th most recent.
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(20));
        assert_eq!(bs.recency.len(), 8);
        let top = bs.levels.last().unwrap();
        assert_eq!(top.prefix_len, 8);
        assert_eq!(top.cut, Some(t(1000.0 - 8.0 * 10.0)));
    }

    #[test]
    fn indexed_fanout_matches_decide() {
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(9));
        let idx = bs.index();
        let caches: [&[u32]; 4] = [&[0, 1, 5], &[0, 3, 5], &[4], &[9, 12]];
        for (tlb, cached) in [(995.0, 0), (975.0, 1), (955.0, 2), (1500.0, 3), (900.0, 0)]
            .map(|(tlb, ci)| (tlb, caches[ci]))
        {
            let items: Vec<ItemId> = cached.iter().map(|&i| ItemId(i)).collect();
            let mut out = Vec::new();
            let sel = bs.decide_with(&idx, t(tlb), items.iter().copied(), &mut out);
            match bs.decide(t(tlb), items) {
                BsDecision::Clean => assert_eq!(sel, BsSelect::Clean),
                BsDecision::DropAll => assert_eq!(sel, BsSelect::DropAll),
                BsDecision::Invalidate(mut stale) => {
                    assert!(matches!(sel, BsSelect::Prefix(_)));
                    stale.sort_unstable();
                    out.sort_unstable();
                    assert_eq!(out, stale, "tlb {tlb}");
                }
            }
        }
    }

    #[test]
    fn boundary_tlb_equal_to_cut_is_covered() {
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(9));
        // cut of level 1 = 990; Tlb = 990 exactly: items updated after 990
        // are a subset of the level-1 prefix, so it must cover.
        match bs.decide(t(990.0), vec![ItemId(0), ItemId(1)]) {
            BsDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(0)]),
            other => panic!("{other:?}"),
        }
    }
}
