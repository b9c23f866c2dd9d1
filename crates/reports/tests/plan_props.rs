//! Property tests pinning the `plan ≡ decide` equivalence: the bitmap
//! invalidation plan ([`PlanCache`]) applied through a cache-membership
//! bitmap must produce exactly the stale **set** the per-item
//! `decide_with` walk produces, and its O(1) per-item probes
//! (`listed` / `listed_ts` / `bs_marked`) must answer exactly what the
//! sorted indexes answer, for every report shape that admits a plan.
//! Each case first decodes an earlier report into the same cache, so
//! leftovers from a previous tick would show. The engine relies on this
//! to swap evaluation strategies without moving the golden digests.

use mobicache_model::ItemId;
use mobicache_reports::{
    AtReport, BitSequences, BsSelect, PlanCache, ReportPayload, WindowDecision, WindowReport,
};
use mobicache_sim::SimTime;
use proptest::prelude::*;
use std::collections::HashMap;

const HORIZON: f64 = 1000.0;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// A random update history: (timestamp, item) pairs over `[0, HORIZON)`.
fn history_strategy(db: u32) -> impl Strategy<Value = Vec<(f64, u32)>> {
    prop::collection::vec((0.0..HORIZON, 0..db), 0..120)
}

/// Ground truth: each item's last update time, if any.
fn last_updates(history: &[(f64, u32)]) -> HashMap<u32, f64> {
    let mut last: HashMap<u32, f64> = HashMap::new();
    for &(ts, item) in history {
        let e = last.entry(item).or_insert(ts);
        if ts > *e {
            *e = ts;
        }
    }
    last
}

/// Builds the `TS` window report the server would broadcast at `HORIZON`.
fn window_report(history: &[(f64, u32)], window_start: f64) -> WindowReport {
    let mut latest_in_window: HashMap<u32, f64> = HashMap::new();
    for &(ts, item) in history {
        if ts > window_start {
            let e = latest_in_window.entry(item).or_insert(ts);
            if ts > *e {
                *e = ts;
            }
        }
    }
    WindowReport {
        broadcast_at: t(HORIZON),
        window_start: t(window_start),
        records: latest_in_window
            .into_iter()
            .map(|(i, ts)| (ItemId(i), t(ts)))
            .collect(),
        dummy: None,
    }
}

/// Builds the bit-sequences report the server would broadcast at
/// `HORIZON`.
fn bs_report(history: &[(f64, u32)], db: u32) -> BitSequences {
    let last = last_updates(history);
    let mut recency: Vec<(ItemId, SimTime)> =
        last.iter().map(|(&i, &ts)| (ItemId(i), t(ts))).collect();
    recency.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    BitSequences::from_recency(t(HORIZON), db, recency)
}

/// Builds the AT report the server would broadcast at `HORIZON` after
/// a report at `prev`.
fn at_report(history: &[(f64, u32)], prev: f64) -> AtReport {
    AtReport {
        broadcast_at: t(HORIZON),
        prev_broadcast: t(prev),
        items: last_updates(history)
            .iter()
            .filter(|&(_, &ts)| ts > prev)
            .map(|(&i, _)| ItemId(i))
            .collect(),
    }
}

/// Membership bitmap over the given ids, exactly as `LruCache` keeps it.
fn member_of(ids: impl IntoIterator<Item = u32>, db: u32) -> Vec<u64> {
    let mut words = vec![0u64; (db as usize).div_ceil(64)];
    for id in ids {
        words[id as usize / 64] |= 1 << (id % 64);
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Window plan ≡ `WindowReport::decide_with`: for a covered client,
    /// the word-wise intersection filtered by the listed-timestamp check
    /// yields exactly the per-item stale set — for *arbitrary* cached
    /// versions, not just histories a well-behaved client could hold.
    #[test]
    fn window_plan_matches_decide_with(
        earlier in history_strategy(128),
        history in history_strategy(128),
        window_start in 0.0..HORIZON,
        tlb in 0.0..HORIZON,
        cached in prop::collection::hash_map(0u32..128, 0.0..HORIZON, 0..40),
    ) {
        let report = window_report(&history, window_start);
        let mut plan = PlanCache::new();
        plan.decode_for_tick(
            &ReportPayload::Window(window_report(&earlier, window_start)),
            t(0.0),
            128,
        );
        // The window decode is Tlb-independent: key with an arbitrary
        // bucket and apply to a client with a different `tlb`.
        plan.decode_for_tick(&ReportPayload::Window(report.clone()), t(0.0), 128);
        prop_assert!(plan.window_active());

        let entries: Vec<(ItemId, SimTime)> =
            cached.iter().map(|(&i, &v)| (ItemId(i), t(v))).collect();
        let idx = report.index();
        let reference = report.decide_with(&idx, t(tlb), entries.clone());

        // The probes answer every cached entry as the index does.
        for &(item, version) in &entries {
            let probed = plan.listed(item) && version < plan.listed_ts(item);
            prop_assert_eq!(probed, idx.is_stale(item, version), "item {:?}", item);
        }

        let member = member_of(cached.keys().copied(), 128);
        let mut planned = Vec::new();
        plan.intersect_into(&member, &mut planned, |item| {
            t(cached[&item.0]) < plan.listed_ts(item)
        });

        match reference {
            WindowDecision::NotCovered => {
                // The engine never applies a window plan to an uncovered
                // client (`covers` is checked per client first); nothing
                // to compare.
                prop_assert!(!report.covers(t(tlb)));
            }
            WindowDecision::Invalidate(mut stale) => {
                stale.sort_unstable();
                planned.sort_unstable();
                prop_assert_eq!(stale, planned);
            }
        }
    }

    /// BS plan ≡ `BitSequences::decide_with`: whenever the client's
    /// selected prefix bucket matches the plan's decoded bucket, the
    /// prefix bitmap intersection yields exactly the per-item marked set;
    /// for every prefix bucket, the rank-column probe walk yields it in
    /// the same order.
    #[test]
    fn bs_plan_matches_decide_with(
        earlier in history_strategy(128),
        earlier_dominant in 0.0..HORIZON,
        history in history_strategy(128),
        dominant in 0.0..HORIZON,
        tlb in 0.0..HORIZON,
        cached_items in prop::collection::hash_set(0u32..128, 0..48),
    ) {
        let report = bs_report(&history, 128);
        let mut plan = PlanCache::new();
        plan.decode_for_tick(
            &ReportPayload::BitSeq(bs_report(&earlier, 128)),
            t(earlier_dominant),
            128,
        );
        plan.decode_for_tick(&ReportPayload::BitSeq(report.clone()), t(dominant), 128);
        // The plan holds a prefix exactly when the dominant bucket
        // resolves to one.
        match report.select(t(dominant)) {
            BsSelect::Prefix(p) => prop_assert_eq!(plan.bs_prefix(), Some(p)),
            _ => prop_assert_eq!(plan.bs_prefix(), None),
        }

        let idx = report.index();
        let mut reference = Vec::new();
        let sel = report.decide_with(
            &idx,
            t(tlb),
            cached_items.iter().copied().map(ItemId),
            &mut reference,
        );
        let BsSelect::Prefix(p) = sel else {
            return Ok(()); // Clean/DropAll verdicts: O(1), no lookups.
        };
        // The rank probes serve every bucket, decoded or not.
        let probed: Vec<ItemId> = cached_items
            .iter()
            .copied()
            .map(ItemId)
            .filter(|&item| plan.bs_marked(item, p))
            .collect();
        prop_assert_eq!(&reference, &probed);
        if plan.bs_prefix() != Some(p) {
            return Ok(()); // bucket mismatch: the engine walks the probes.
        }
        let member = member_of(cached_items.iter().copied(), 128);
        let mut planned = Vec::new();
        plan.intersect_into(&member, &mut planned, |_| true);
        reference.sort_unstable();
        planned.sort_unstable();
        prop_assert_eq!(reference, planned);
    }

    /// AT plan ≡ `AtReport::decide_with`: for a covered client the listed
    /// bitmap intersection yields exactly the per-item membership set.
    #[test]
    fn at_plan_matches_decide_with(
        earlier in history_strategy(128),
        history in history_strategy(128),
        prev in 0.0..HORIZON,
        tlb in 0.0..HORIZON,
        cached_items in prop::collection::hash_set(0u32..128, 0..48),
    ) {
        let report = at_report(&history, prev);
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&ReportPayload::At(at_report(&earlier, prev)), t(0.0), 128);
        plan.decode_for_tick(&ReportPayload::At(report.clone()), t(0.0), 128);
        prop_assert!(plan.at_active());

        let idx = report.index();
        // The listed probe answers every cached item as the index does.
        for &item in &cached_items {
            prop_assert_eq!(plan.listed(ItemId(item)), idx.contains(ItemId(item)));
        }
        let mut reference = Vec::new();
        let covered = report.decide_with(
            &idx,
            t(tlb),
            cached_items.iter().copied().map(ItemId),
            &mut reference,
        );
        if !covered {
            // Uncovered AT clients drop the whole cache; the plan is
            // never consulted.
            return Ok(());
        }
        let member = member_of(cached_items.iter().copied(), 128);
        let mut planned = Vec::new();
        plan.intersect_into(&member, &mut planned, |_| true);
        reference.sort_unstable();
        planned.sort_unstable();
        prop_assert_eq!(reference, planned);
    }
}
