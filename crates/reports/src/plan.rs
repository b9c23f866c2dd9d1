//! Per-tick invalidation **plans**: one report decoded once into dense
//! per-item tables over `ItemId`, applied to each cache by a word-wise
//! AND or, for caches too small to profit, by O(1) per-item probes.
//!
//! Every connected client applies the same broadcast report, and almost
//! every one holds the same effective `Tlb` (the previous report's
//! timestamp) and therefore computes the *same* stale set. A
//! [`PlanCache`] flips the loop: decode the report into `db_size`-wide
//! tables once per tick, then each client either intersects the stale
//! bitmap with its own cache-membership bitmap — visiting only non-zero
//! words — or probes the tables item by item. The decode is the engine's
//! only per-report decode: no sorted index is built per delivery.
//!
//! Per report kind:
//!
//! * **Window** — the provably-stale set (`version < t_listed`) is
//!   `Tlb`-independent: the listed-item bitmap plus a dense timestamp
//!   table serve *every* client ([`PlanCache::listed`] +
//!   [`PlanCache::listed_ts`]); coverage (`covers(tlb)`) stays a cheap
//!   per-client scalar check.
//! * **Bit-sequences** — staleness is pure prefix membership: an item is
//!   marked at a level iff its recency rank is below the level's prefix
//!   length. Every decode fills a dense rank column for the whole
//!   recency list, so [`PlanCache::bs_marked`] answers every `Tlb`
//!   bucket. The engine also pre-decodes the dominant bucket (the
//!   previous report's broadcast time — every client that heard it lands
//!   there) into a prefix bitmap for the word-wise path.
//! * **AT** — the listed-item bitmap is `Tlb`-independent; coverage is a
//!   scalar check, an uncovered client drops its whole cache anyway.
//! * **SIG** — no plan: the verdict depends on each client's stored
//!   signature baseline, which is per-client by construction.
//!
//! The plan is an *evaluation strategy*, never a behavioural change: the
//! bitmap intersection and the probes yield exactly the stale **set**
//! the per-item `decide_with` walk yields (pinned by the
//! `plan ≡ decide` proptests), and the engine golden digests stay
//! bit-identical.

use crate::bitseq::BsSelect;
use crate::payload::ReportPayload;
use mobicache_model::ItemId;
use mobicache_sim::SimTime;

/// Which decode the plan currently holds (one report kind per tick).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum PlanKind {
    /// No plan decoded for this tick (SIG report).
    #[default]
    None,
    /// Window report: bitmap of listed items + dense update timestamps.
    Window,
    /// AT report: bitmap of listed items.
    At,
    /// BS report: the rank column, plus — when the dominant bucket
    /// selects a prefix — the bitmap of the first `prefix` recency
    /// entries.
    Bs(Option<usize>),
}

/// Per-client plan-application tallies, accumulated shard-locally by the
/// engine fan-out and merged serially (sums are order-free, so the
/// counters are thread-invariant).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Report applications served by a memoized plan bitmap.
    pub hits: u64,
    /// Applications that fell back to the per-item path (plan absent for
    /// the client's bucket, or the cache too small to profit).
    pub misses: u64,
}

/// A reusable per-tick invalidation-plan cache.
///
/// `decode_for_tick` turns one [`ReportPayload`] into a dense stale
/// bitmap (`db_size.div_ceil(64)` words of `u64`) and, per kind, a dense
/// timestamp or rank column; `intersect_into` applies the bitmap to one
/// cache's membership bitmap, and `listed` / `listed_ts` / `bs_marked`
/// answer one item in O(1). The buffers persist across ticks, so steady
/// state allocates nothing.
///
/// Shared immutably across the engine's fan-out shards: after the serial
/// phase-0 decode every read is lock-free (`&PlanCache` is `Sync` — the
/// struct is plain `Vec`s).
#[derive(Debug, Default)]
pub struct PlanCache {
    kind: PlanKind,
    /// The stale bitmap, bit `i` = `ItemId(i)`.
    bits: Vec<u64>,
    /// Window plans only: `ts[i]` is the listed update timestamp of
    /// `ItemId(i)`. Only slots whose `bits` bit is set are meaningful
    /// (stale slots from earlier ticks are never read).
    ts: Vec<SimTime>,
    /// BS plans only: `rank[i] - rank_base` is the recency rank of
    /// `ItemId(i)` when it is below `rank_len`. Each decode stamps its
    /// entries above every earlier decode's, so entries from earlier
    /// ticks (and never-written zeros) read as absent without a clear.
    rank: Vec<u32>,
    /// First stamp of the current BS decode (`≥ 1` once one ran).
    rank_base: u32,
    /// Recency entries of the current BS decode.
    rank_len: u32,
    /// Bitmap decodes performed over the cache's lifetime.
    decodes: u64,
}

impl PlanCache {
    /// An empty plan cache; buffers grow on first decode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroes the bitmap at `words` words, keeping the allocation.
    fn reset_bits(&mut self, words: usize) {
        self.bits.clear();
        self.bits.resize(words, 0);
    }

    /// Stamps the recency rank of every entry of `recency` into the rank
    /// column: `O(|recency|)` writes, no sort, no clear. The column is
    /// allocated on the first BS decode.
    fn load_ranks(&mut self, recency: &[(ItemId, SimTime)], db_size: u32) {
        if self.rank.len() < db_size as usize {
            self.rank.resize(db_size as usize, 0);
        }
        let len = recency.len() as u32;
        // Stamps start at 1 so a never-written 0 is absent, and move past
        // the previous decode so its entries fall below the new base.
        let mut base = (self.rank_base + self.rank_len).max(1);
        if base.checked_add(len).is_none() {
            // The stamp space ran out: forget every old entry once.
            self.rank.fill(0);
            base = 1;
        }
        for (r, &(item, _)) in recency.iter().enumerate() {
            self.rank[item.0 as usize] = base + r as u32;
        }
        self.rank_base = base;
        self.rank_len = len;
    }

    #[inline]
    fn set(&mut self, item: ItemId) {
        let i = item.0 as usize;
        debug_assert!(i / 64 < self.bits.len(), "item id beyond db_size");
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Decodes `payload` into this tick's plan. Serial phase-0 only —
    /// shards read the result immutably.
    ///
    /// `dominant_tlb` keys the BS prefix bitmap: pass the previous
    /// report's broadcast time (every client that heard it selects this
    /// bucket). A BS decode always fills the rank column, so
    /// [`PlanCache::bs_marked`] serves every other bucket; when the
    /// dominant bucket resolves to Clean/DropAll no bitmap is built
    /// (both verdicts are O(1) per client anyway). Window and AT decodes
    /// are `Tlb`-independent. A SIG payload leaves the plan empty.
    pub fn decode_for_tick(
        &mut self,
        payload: &ReportPayload,
        dominant_tlb: SimTime,
        db_size: u32,
    ) {
        self.kind = PlanKind::None;
        let words = (db_size as usize).div_ceil(64);
        match payload {
            ReportPayload::Window(w) => {
                self.reset_bits(words);
                if self.ts.len() < db_size as usize {
                    self.ts.resize(db_size as usize, SimTime::ZERO);
                }
                for &(item, t) in &w.records {
                    self.set(item);
                    self.ts[item.0 as usize] = t;
                }
                self.kind = PlanKind::Window;
                self.decodes += 1;
            }
            ReportPayload::At(at) => {
                self.reset_bits(words);
                for &item in &at.items {
                    self.set(item);
                }
                self.kind = PlanKind::At;
                self.decodes += 1;
            }
            ReportPayload::BitSeq(bs) => {
                self.load_ranks(&bs.recency, db_size);
                let prefix = match bs.select(dominant_tlb) {
                    BsSelect::Prefix(p) => {
                        self.reset_bits(words);
                        for &(item, _) in &bs.recency[..p.min(bs.recency.len())] {
                            self.set(item);
                        }
                        self.decodes += 1;
                        Some(p)
                    }
                    BsSelect::Clean | BsSelect::DropAll => None,
                };
                self.kind = PlanKind::Bs(prefix);
            }
            ReportPayload::Sig(..) => {}
        }
    }

    /// Bitmap decodes performed so far (cumulative).
    pub fn decodes(&self) -> u64 {
        self.decodes
    }

    /// `true` when a window plan is loaded (listed bitmap + timestamps).
    pub fn window_active(&self) -> bool {
        self.kind == PlanKind::Window
    }

    /// `true` when an AT plan is loaded (listed bitmap).
    pub fn at_active(&self) -> bool {
        self.kind == PlanKind::At
    }

    /// The decoded BS prefix bucket, when one is loaded.
    pub fn bs_prefix(&self) -> Option<usize> {
        match self.kind {
            PlanKind::Bs(p) => p,
            _ => None,
        }
    }

    /// `true` when `item` is marked at a BS level of `prefix` "1"s —
    /// its recency rank in this tick's report is below `prefix` — for
    /// any prefix bucket, not only the decoded one. Requires a BS plan.
    #[inline]
    pub fn bs_marked(&self, item: ItemId, prefix: usize) -> bool {
        debug_assert!(matches!(self.kind, PlanKind::Bs(_)), "no BS plan loaded");
        let rank = self.rank[item.0 as usize].wrapping_sub(self.rank_base);
        rank < self.rank_len && (rank as usize) < prefix
    }

    /// `true` when this tick's window or AT report lists `item`.
    /// Requires a window or AT plan.
    #[inline]
    pub fn listed(&self, item: ItemId) -> bool {
        debug_assert!(
            matches!(self.kind, PlanKind::Window | PlanKind::At),
            "no window/AT plan loaded"
        );
        let i = item.0 as usize;
        self.bits[i / 64] >> (i % 64) & 1 != 0
    }

    /// The plan bitmap words (bit `i` = `ItemId(i)`).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// The listed update timestamp of `item` under a window plan.
    /// Meaningful only for items whose plan bit is set.
    #[inline]
    pub fn listed_ts(&self, item: ItemId) -> SimTime {
        self.ts[item.0 as usize]
    }

    /// Word-wise `plan & member` intersection: for every set bit of the
    /// AND (ascending item id, extracted via `trailing_zeros`), pushes
    /// the item onto `out` if `keep` accepts it. Only non-zero words do
    /// per-bit work; `member` is each cache's membership bitmap, grown
    /// lazily, so the loop runs `min(|member|, |plan|)` words.
    pub fn intersect_into(
        &self,
        member: &[u64],
        out: &mut Vec<ItemId>,
        mut keep: impl FnMut(ItemId) -> bool,
    ) {
        let n = member.len().min(self.bits.len());
        for (wi, (&m, &p)) in member[..n].iter().zip(&self.bits[..n]).enumerate() {
            let mut w = m & p;
            while w != 0 {
                let item = ItemId((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
                if keep(item) {
                    out.push(item);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::at::AtReport;
    use crate::bitseq::BitSequences;
    use crate::window::WindowReport;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A little member bitmap over the given ids.
    fn member_of(ids: &[u32], db: u32) -> Vec<u64> {
        let mut words = vec![0u64; (db as usize).div_ceil(64)];
        for &id in ids {
            words[id as usize / 64] |= 1 << (id % 64);
        }
        words
    }

    fn window(records: Vec<(u32, f64)>) -> ReportPayload {
        ReportPayload::Window(WindowReport {
            broadcast_at: t(1000.0),
            window_start: t(800.0),
            records: records
                .into_iter()
                .map(|(i, ts)| (ItemId(i), t(ts)))
                .collect(),
            dummy: None,
        })
    }

    #[test]
    fn window_plan_intersects_listed_and_cached() {
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&window(vec![(3, 950.0), (70, 920.0)]), t(0.0), 128);
        assert!(plan.window_active());
        assert_eq!(plan.decodes(), 1);
        let member = member_of(&[3, 5, 70], 128);
        let mut out = Vec::new();
        plan.intersect_into(&member, &mut out, |_| true);
        assert_eq!(out, vec![ItemId(3), ItemId(70)]);
        assert_eq!(plan.listed_ts(ItemId(3)), t(950.0));
        assert_eq!(plan.listed_ts(ItemId(70)), t(920.0));
    }

    #[test]
    fn keep_filter_prunes_fresh_versions() {
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&window(vec![(3, 950.0), (7, 920.0)]), t(0.0), 64);
        let member = member_of(&[3, 7], 64);
        let mut out = Vec::new();
        // Pretend item 3's cached version is fresh (≥ listed ts).
        plan.intersect_into(&member, &mut out, |i| {
            t(930.0) < plan.listed_ts(i) // only 3 (950) qualifies
        });
        assert_eq!(out, vec![ItemId(3)]);
    }

    #[test]
    fn at_plan_marks_listed_items() {
        let mut plan = PlanCache::new();
        let at = ReportPayload::At(AtReport {
            broadcast_at: t(200.0),
            prev_broadcast: t(100.0),
            items: vec![ItemId(1), ItemId(65)],
        });
        plan.decode_for_tick(&at, t(100.0), 128);
        assert!(plan.at_active());
        let mut out = Vec::new();
        plan.intersect_into(&member_of(&[0, 1, 64, 65], 128), &mut out, |_| true);
        assert_eq!(out, vec![ItemId(1), ItemId(65)]);
    }

    #[test]
    fn bs_plan_keys_off_dominant_prefix() {
        // Recency-descending updates: 9 @ 95, 4 @ 85, 2 @ 75.
        let bs = BitSequences::from_recency(
            t(100.0),
            64,
            vec![
                (ItemId(9), t(95.0)),
                (ItemId(4), t(85.0)),
                (ItemId(2), t(75.0)),
            ],
        );
        let sel = bs.select(t(90.0));
        let BsSelect::Prefix(p) = sel else {
            panic!("expected a prefix selection, got {sel:?}");
        };
        let payload = ReportPayload::BitSeq(bs);
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&payload, t(90.0), 64);
        assert_eq!(plan.bs_prefix(), Some(p));
        let mut out = Vec::new();
        plan.intersect_into(&member_of(&[2, 4, 9], 64), &mut out, |_| true);
        // The plan marks exactly the prefix items; a Tlb of 90 must at
        // least invalidate the newest update (9 @ 95).
        assert!(out.contains(&ItemId(9)));
        let ReportPayload::BitSeq(bs) = &payload else {
            unreachable!()
        };
        let marked: Vec<ItemId> = bs.recency[..p.min(bs.recency.len())]
            .iter()
            .map(|&(i, _)| i)
            .collect();
        for i in &out {
            assert!(marked.contains(i));
        }
    }

    #[test]
    fn clean_select_and_sig_leave_no_plan() {
        let bs = BitSequences::from_recency(t(100.0), 64, vec![(ItemId(9), t(50.0))]);
        let mut plan = PlanCache::new();
        // Tlb newer than every update: Clean — nothing to decode.
        plan.decode_for_tick(&ReportPayload::BitSeq(bs), t(60.0), 64);
        assert!(!plan.window_active() && !plan.at_active());
        assert_eq!(plan.bs_prefix(), None);
        assert_eq!(plan.decodes(), 0);
        // The rank column still serves every other bucket.
        assert!(plan.bs_marked(ItemId(9), 1));
    }

    /// Recency-descending BS report over `ids` in a 64-item database.
    fn bs_over(ids: &[u32]) -> ReportPayload {
        let recency = ids
            .iter()
            .enumerate()
            .map(|(k, &i)| (ItemId(i), t(95.0 - k as f64)))
            .collect::<Vec<_>>();
        ReportPayload::BitSeq(BitSequences::from_recency(t(100.0), 64, recency))
    }

    #[test]
    fn bs_ranks_answer_every_bucket() {
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&bs_over(&[9, 4, 2]), t(0.0), 64);
        assert!(plan.bs_marked(ItemId(9), 1));
        assert!(!plan.bs_marked(ItemId(4), 1));
        assert!(plan.bs_marked(ItemId(4), 2));
        // A prefix longer than the recency list marks all of it.
        assert!(plan.bs_marked(ItemId(2), 32));
        assert!(!plan.bs_marked(ItemId(5), 32), "unlisted item");
    }

    #[test]
    fn bs_ranks_from_an_earlier_tick_read_as_absent() {
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&bs_over(&[9, 4, 2]), t(0.0), 64);
        plan.decode_for_tick(&window(vec![(9, 950.0)]), t(0.0), 64);
        plan.decode_for_tick(&bs_over(&[4]), t(0.0), 64);
        assert!(plan.bs_marked(ItemId(4), 1));
        assert!(!plan.bs_marked(ItemId(9), 32));
        assert!(!plan.bs_marked(ItemId(2), 32));
    }

    #[test]
    fn rank_stamps_survive_wrap_around() {
        let mut plan = PlanCache::new();
        // Stamps 1, 2, 3 for items 9, 4, 2.
        plan.decode_for_tick(&bs_over(&[9, 4, 2]), t(0.0), 64);
        // Jump to the end of the stamp space: the next decode cannot fit
        // and must restart at 1. Without the one-off clear, item 9's
        // stamp (1) would alias rank 0 of the new report.
        plan.rank_base = u32::MAX - 1;
        plan.rank_len = 0;
        plan.decode_for_tick(&bs_over(&[5, 6, 7, 8]), t(0.0), 64);
        assert_eq!(plan.rank_base, 1);
        for item in [9, 4, 2] {
            assert!(!plan.bs_marked(ItemId(item), 32), "item {item} survived");
        }
        assert!(plan.bs_marked(ItemId(5), 1));
        assert!(plan.bs_marked(ItemId(8), 4));
        assert!(!plan.bs_marked(ItemId(8), 3));
        // Decoding continues past the restart as usual.
        plan.decode_for_tick(&bs_over(&[2]), t(0.0), 64);
        assert!(plan.bs_marked(ItemId(2), 1));
        assert!(!plan.bs_marked(ItemId(5), 32));
    }

    #[test]
    fn listed_probe_reads_the_listed_bitmap() {
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&window(vec![(3, 950.0), (70, 920.0)]), t(0.0), 128);
        assert!(plan.listed(ItemId(3)) && plan.listed(ItemId(70)));
        assert!(!plan.listed(ItemId(5)) && !plan.listed(ItemId(127)));
        let at = ReportPayload::At(AtReport {
            broadcast_at: t(200.0),
            prev_broadcast: t(100.0),
            items: vec![ItemId(65)],
        });
        plan.decode_for_tick(&at, t(0.0), 128);
        assert!(plan.listed(ItemId(65)));
        assert!(!plan.listed(ItemId(3)), "window bit from the last tick");
    }

    #[test]
    fn redecoding_clears_the_previous_tick() {
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&window(vec![(3, 950.0)]), t(0.0), 64);
        plan.decode_for_tick(&window(vec![(5, 960.0)]), t(0.0), 64);
        let mut out = Vec::new();
        plan.intersect_into(&member_of(&[3, 5], 64), &mut out, |_| true);
        assert_eq!(out, vec![ItemId(5)], "stale bit from tick 1 must be gone");
        assert_eq!(plan.decodes(), 2);
    }
}
