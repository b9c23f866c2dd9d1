//! The traced run: per-layer metrics.
//!
//! Three sources, all outside the library:
//! - exact counts from the engines' public outputs (`Metrics`, and an
//!   `IntervalSnapshot` per broadcast period through a `Probe`);
//! - wall time per broadcast period, from that same probe;
//! - spans this file puts around calls into each crate's public API
//!   (`Scheduler`, `WorkerPool`, `Channel`, `Server`,
//!   `ReportPayload::prepare`, `PlanCache`, `LruCache`, `Client`), fed
//!   with inputs generated from the workload's configs and seed.
//!
//! The spans are written once, at the end, to
//! `$CARGO_TARGET_DIR/perfbench-traces/<workload>-s<seed>.json`.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mobicache::{IntervalSnapshot, Metrics, Probe, RunOptions, SimTime, WorkerPool};
use mobicache_cache::LruCache;
use mobicache_client::{Client, ClientConfig};
use mobicache_model::{ClientId, ItemId, Scheme, SimConfig, SizeParams};
use mobicache_net::Channel;
use mobicache_reports::{PlanCache, ReportPayload};
use mobicache_server::Server;
use mobicache_sim::{Exp, Scheduler, SimRng, StreamId};
use mobicache_workload::{ItemSampler, UpdateGen};

use crate::e2e::{self, Tally};
use crate::exec::{run_engine, run_sweep};
use crate::trace::Tracer;
use crate::workloads::{Kind, Workload};
use crate::{median, percentile, Report};

/// Passes made of each traced / untraced / thread-count variant.
const PASSES: usize = 3;
/// Host time each per-layer loop may take, per layer config.
const LAYER_BUDGET_S: f64 = 0.3;
/// Reports kept from the server replay for the fan-out loops.
const KEPT_REPORTS: usize = 16;
/// Caches the fan-out loops walk per report.
const FANOUT_CACHES: usize = 128;

/// Records the wall-clock instant of every broadcast period boundary
/// and the last interval snapshot.
struct PeriodProbe {
    marks: Vec<Instant>,
    last: Option<IntervalSnapshot>,
}

impl Probe for PeriodProbe {
    fn snapshot_every(&self) -> Option<u32> {
        Some(1)
    }

    fn on_snapshot(&mut self, snap: &IntervalSnapshot) {
        self.marks.push(Instant::now());
        self.last = Some(*snap);
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Calls `f` until `budget_s` of host time has passed (at least
/// `min_calls` times); returns the per-call wall times in seconds.
fn sample_for(budget_s: f64, min_calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_calls || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

fn size_params(cfg: &SimConfig) -> SizeParams {
    SizeParams {
        db_size: u64::from(cfg.db_size),
        group_count: u64::from(cfg.gcore_groups),
        timestamp_bits: cfg.timestamp_bits,
        header_bits: cfg.header_bits,
        control_bytes: cfg.control_bytes,
        item_bytes: cfg.item_bytes,
    }
}

/// The engine configs the per-layer loops use: the workload's engines,
/// or for `paper-sweep` its long pole (Fig 5 BS at 80k items) and a
/// mid-sweep adaptive point (Fig 13 AAW at p = 0.4).
fn layer_configs(w: &Workload, cfgs: &[SimConfig]) -> Vec<SimConfig> {
    if w.kind != Kind::PaperSweep {
        return cfgs.to_vec();
    }
    let pick = |pred: &dyn Fn(&SimConfig) -> bool| cfgs.iter().find(|c| pred(c)).cloned();
    [
        pick(&|c| c.scheme == Scheme::Bs && c.db_size == 80_000),
        pick(&|c| c.scheme == Scheme::Aaw && c.p_disconnect == 0.4),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Timings from replaying one engine's update stream through a
/// `Server` and handing each report to the report layer.
#[derive(Default)]
struct Replay {
    build_s: Vec<f64>,
    prepare_s: Vec<f64>,
    decode_s: Vec<f64>,
    txn_s: f64,
    txns: u64,
    /// The last reports built, oldest first.
    kept: Vec<Arc<ReportPayload>>,
}

/// Replays `cfg`'s exact update stream (`StreamId::Update` of its seed)
/// through `Server::apply_txn`, builds a report every broadcast period,
/// and prepares and plan-decodes it. Adaptive servers receive `Tlb`s at
/// the rate the engine run `m` saw.
fn replay(cfg: &SimConfig, m: &Metrics, budget_s: f64) -> (Replay, Server) {
    let mut server = Server::new(cfg.scheme, cfg.db_size, cfg.window_secs(), size_params(cfg));
    let updates = UpdateGen::new(
        cfg.workload.update,
        cfg.db_size,
        cfg.mean_update_interarrival_secs,
        cfg.items_per_update_mean,
    );
    let mut rng = SimRng::for_stream(cfg.seed, StreamId::Update);
    let mut tlb_rng = SimRng::for_stream(cfg.seed, StreamId::Client(0));
    let reports = (m.server.window_reports
        + m.server.enlarged_reports
        + m.server.bs_reports
        + m.server.at_reports
        + m.server.sig_reports) as f64;
    let tlbs_per_tick = ratio(m.server.tlbs_received as f64, reports);
    let doze_ticks = (2.0 * cfg.mean_disconnect_secs / cfg.broadcast_period_secs).max(1.0) as u64;
    let period = cfg.broadcast_period_secs;
    let ticks = (cfg.sim_time_secs / period) as u64;

    let mut r = Replay::default();
    let mut plan = PlanCache::new();
    let mut prev_at = SimTime::ZERO;
    let mut next_update = updates.next_interarrival(&mut rng);
    let started = Instant::now();
    for tick in 1..=ticks {
        let now = tick as f64 * period;
        while next_update <= now {
            let items = updates.next_txn_items(&mut rng);
            let t = Instant::now();
            server.apply_txn(SimTime::from_secs(next_update), &items);
            r.txn_s += t.elapsed().as_secs_f64();
            r.txns += 1;
            next_update += updates.next_interarrival(&mut rng);
        }
        if tlbs_per_tick > 0.0 && tlb_rng.coin(tlbs_per_tick.min(1.0)) {
            let back = 1 + tlb_rng.next_below(doze_ticks);
            let tlb = tick.saturating_sub(back) as f64 * period;
            server.receive_tlb(SimTime::from_secs(tlb));
        }
        let t = Instant::now();
        let (report, _) = server.build_report_shared(SimTime::from_secs(now));
        r.build_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(report.prepare());
        r.prepare_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        plan.decode_for_tick(&report, prev_at, cfg.db_size);
        r.decode_s.push(t.elapsed().as_secs_f64());
        prev_at = report.broadcast_at();
        r.kept.push(report);
        if r.kept.len() > KEPT_REPORTS {
            r.kept.remove(0);
        }
        if started.elapsed().as_secs_f64() > budget_s && tick > KEPT_REPORTS as u64 {
            break;
        }
    }
    (r, server)
}

/// Caches of `cfg`'s capacity filled from its query pattern (client
/// streams of its seed), every entry at version 0.
fn filled_caches(cfg: &SimConfig, n: usize) -> Vec<LruCache> {
    let sampler = ItemSampler::new(cfg.workload.query, cfg.db_size);
    let cap = cfg.cache_capacity_items() as usize;
    (0..n)
        .map(|c| {
            let mut rng = SimRng::for_stream(cfg.seed, StreamId::Client(c as u32));
            let mut cache = LruCache::new(cap);
            for _ in 0..cap * 4 {
                cache.insert(sampler.sample(&mut rng), SimTime::ZERO, SimTime::ZERO);
            }
            cache
        })
        .collect()
}

/// Per-layer loop results for one config, each a list of samples.
#[derive(Default)]
struct LayerSamples {
    build_us: Vec<f64>,
    txn_ns: Vec<f64>,
    prepare_us: Vec<f64>,
    decode_us: Vec<f64>,
    check_us: Vec<f64>,
    plan_ns_per_client: Vec<f64>,
    walk_ns_per_client: Vec<f64>,
    lookup_ns: Vec<f64>,
    insert_ns: Vec<f64>,
    on_report_us: Vec<f64>,
    sched_ns: Vec<f64>,
    channel_ns: Vec<f64>,
}

fn us(xs: &[f64]) -> impl Iterator<Item = f64> + '_ {
    xs.iter().map(|s| s * 1e6)
}

/// Runs every per-layer loop on `cfg`, each inside its own span.
fn layer_loops(
    tr: &mut Tracer,
    cfg: &SimConfig,
    m: &Metrics,
    queue_depth: usize,
    out: &mut LayerSamples,
) {
    // server + reports: the replayed update stream.
    let (rep, server) = tr.span("server.replay", |_| replay(cfg, m, LAYER_BUDGET_S));
    out.build_us.extend(us(&rep.build_s));
    out.prepare_us.extend(us(&rep.prepare_s));
    out.decode_us.extend(us(&rep.decode_s));
    out.txn_ns.push(ratio(rep.txn_s * 1e9, rep.txns as f64));

    // server: a full-cache validity check.
    let sampler = ItemSampler::new(cfg.workload.query, cfg.db_size);
    let mut rng = SimRng::for_stream(cfg.seed, StreamId::Client(0));
    let entries: Vec<(ItemId, SimTime)> = (0..cfg.cache_capacity_items())
        .map(|_| {
            let item = sampler.sample(&mut rng);
            (item, server.version(item))
        })
        .collect();
    let now = SimTime::from_secs(cfg.sim_time_secs);
    let mut checker = server;
    let check = tr.span("server.process_check", |_| {
        sample_for(LAYER_BUDGET_S / 3.0, 10, || {
            black_box(checker.process_check(now, black_box(&entries)));
        })
    });
    out.check_us.extend(us(&check));

    // reports + cache: plan fan-out against the per-item walk.
    let caches = filled_caches(cfg, FANOUT_CACHES.min(cfg.num_clients as usize));
    let mut plan = PlanCache::new();
    let mut stale = Vec::new();
    let mut prev_at = SimTime::ZERO;
    for report in &rep.kept {
        plan.decode_for_tick(report, prev_at, cfg.db_size);
        let prepared = report.prepare();
        let planned = plan.window_active() || plan.at_active() || plan.bs_prefix().is_some();
        if planned {
            let t = tr.span("reports.plan.fanout", |_| {
                let t = Instant::now();
                for cache in &caches {
                    stale.clear();
                    plan.intersect_into(cache.member_words(), &mut stale, |item| {
                        !plan.window_active()
                            || cache
                                .peek(item)
                                .is_some_and(|e| e.version < plan.listed_ts(item))
                    });
                    black_box(&stale);
                }
                t.elapsed().as_secs_f64()
            });
            out.plan_ns_per_client.push(t * 1e9 / caches.len() as f64);
        }
        let t = tr.span("cache.stale_walk", |_| {
            let t = Instant::now();
            for cache in &caches {
                stale.clear();
                match report.as_ref() {
                    ReportPayload::Window(_) => {
                        let idx = prepared.window_index().expect("window report has an index");
                        idx.stale_into(cache.items_iter(), &mut stale);
                    }
                    ReportPayload::BitSeq(bs) => {
                        let idx = prepared.bs_index().expect("BS report has an index");
                        let items = cache.items_iter().map(|(i, _)| i);
                        bs.decide_with(idx, prev_at, items, &mut stale);
                    }
                    ReportPayload::At(at) => {
                        let idx = prepared.at_index().expect("AT report has an index");
                        let items = cache.items_iter().map(|(i, _)| i);
                        at.decide_with(idx, prev_at, items, &mut stale);
                    }
                    ReportPayload::Sig(..) => {}
                }
                black_box(&stale);
            }
            t.elapsed().as_secs_f64()
        });
        out.walk_ns_per_client.push(t * 1e9 / caches.len() as f64);
        prev_at = report.broadcast_at();
    }

    // cache: lookups and inserts at the workload's cache size and
    // query pattern.
    let cap = cfg.cache_capacity_items() as usize;
    let seq: Vec<ItemId> = (0..cap * 8).map(|_| sampler.sample(&mut rng)).collect();
    let mut cache = LruCache::new(cap);
    for &item in &seq {
        if cache.get_valid(item).is_none() {
            cache.insert(item, SimTime::ZERO, SimTime::ZERO);
        }
    }
    tr.span("cache.lru", |_| {
        let lookups = sample_for(LAYER_BUDGET_S / 2.0, 3, || {
            for &item in &seq {
                black_box(cache.get_valid(item));
            }
        });
        out.lookup_ns
            .extend(lookups.iter().map(|s| s * 1e9 / seq.len() as f64));
        let inserts = sample_for(LAYER_BUDGET_S / 2.0, 3, || {
            for &item in &seq {
                cache.insert(item, SimTime::ZERO, SimTime::ZERO);
            }
        });
        out.insert_ns
            .extend(inserts.iter().map(|s| s * 1e9 / seq.len() as f64));
    });

    // client: report application on a full cache whose Tlb trails the
    // report by one period, refilled between reports.
    let client_cfg = ClientConfig {
        scheme: cfg.scheme,
        checking_mode: cfg.checking_mode,
        cache_capacity: cap,
        broadcast_period_secs: cfg.broadcast_period_secs,
        gcore_groups: cfg.gcore_groups,
        retry: cfg.faults.is_active().then_some(cfg.faults.retry),
    };
    tr.span("client.on_report", |_| {
        let mut actions = Vec::new();
        for c in 0..8u32 {
            let mut client = Client::new(ClientId(c), client_cfg);
            let mut rng = SimRng::for_stream(cfg.seed, StreamId::Client(c));
            for report in &rep.kept {
                let at = report.broadcast_at();
                while client.cache().len() < cap {
                    client.on_snooped_data(at, sampler.sample(&mut rng), SimTime::ZERO);
                }
                let prepared = report.prepare();
                actions.clear();
                let t = Instant::now();
                client.on_report_into(at, &prepared, &mut actions);
                out.on_report_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    });

    // sim: schedule + pop at the engine's pending depth.
    tr.span("sim.sched", |_| {
        let think = Exp::with_mean(cfg.mean_think_secs);
        let mut sched: Scheduler<u32> = Scheduler::new();
        let mut rng = SimRng::for_stream(cfg.seed, StreamId::Client(1));
        for i in 0..queue_depth.max(1) {
            sched.schedule(SimTime::from_secs(think.sample(&mut rng)), i as u32);
        }
        let ops = 100_000;
        let times = sample_for(LAYER_BUDGET_S, 1, || {
            for _ in 0..ops {
                let (at, ev) = sched.pop().expect("scheduler holds events");
                let next = at.as_secs() + think.sample(&mut rng);
                sched.schedule(SimTime::from_secs(next), black_box(ev));
            }
        });
        out.sched_ns
            .extend(times.iter().map(|s| s * 1e9 / ops as f64));
    });

    // net: the downlink's message mix, with report preemptions.
    tr.span("net.channel", |_| {
        let t = Instant::now();
        let msgs = channel_mix(cfg, m, 20_000);
        out.channel_ns
            .push(ratio(t.elapsed().as_secs_f64() * 1e9, msgs as f64));
    });
}

/// Drives a downlink `Channel` with `cfg`'s message mix as the engine
/// run `m` measured it: a report every period (class 0, preempting),
/// and data items (class 2) and validity reports (class 1) arriving as
/// a Poisson stream at the measured rate. Returns messages sent.
fn channel_mix(cfg: &SimConfig, m: &Metrics, n: u64) -> u64 {
    let horizon = cfg.sim_time_secs;
    let reports = (m.server.window_reports
        + m.server.enlarged_reports
        + m.server.bs_reports
        + m.server.at_reports
        + m.server.sig_reports)
        .max(1) as f64;
    let report_bits = (m.downlink_report_bits / reports).max(1.0);
    let data = m.item_misses as f64;
    let validity = m.server.checks_processed as f64;
    let validity_bits = ratio(m.downlink_validity_bits, validity).max(1.0);
    let others = (data + validity).max(1.0);
    let gap = Exp::with_mean(horizon / others);
    let p_data = ratio(data, data + validity).max(if validity == 0.0 { 1.0 } else { 0.0 });
    let mut rng = SimRng::for_stream(cfg.seed, StreamId::Client(2));
    let mut ch: Channel<u32> = Channel::new(cfg.downlink_bps);
    let mut pending: Vec<(f64, u64)> = Vec::new();
    let mut next_report = cfg.broadcast_period_secs;
    let mut next_other = gap.sample(&mut rng);
    let mut sent = 0;
    while sent < n {
        let (ci, done_at) = pending
            .iter()
            .enumerate()
            .map(|(i, &(at, _))| (i, at))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((usize::MAX, f64::INFINITY));
        let now = done_at.min(next_report).min(next_other);
        let started = if now == done_at {
            let (_, token) = pending.swap_remove(ci);
            ch.complete(SimTime::from_secs(now), token)
                .and_then(|d| d.next)
        } else {
            sent += 1;
            let (bits, class) = if now == next_report {
                next_report += cfg.broadcast_period_secs;
                (report_bits, 0)
            } else {
                next_other += gap.sample(&mut rng);
                if rng.coin(p_data) {
                    (cfg.item_bits(), 2)
                } else {
                    (validity_bits, 1)
                }
            };
            ch.send(SimTime::from_secs(now), bits, class, sent as u32)
        };
        if let Some(c) = started {
            pending.push((c.at.as_secs(), c.token));
        }
    }
    black_box(ch.stats(SimTime::from_secs(next_report)));
    sent
}

/// Per-engine outputs of one traced pass.
struct Traced {
    run_s: f64,
    periods_s: Vec<f64>,
    last: Vec<IntervalSnapshot>,
}

/// One pass over the engines, serially, each with a `PeriodProbe`.
/// With `spans`, set-up, run and every period become spans under the
/// current one (recorded after the run, so they cost it nothing).
fn traced_pass(
    tr: &mut Tracer,
    cfgs: &[SimConfig],
    tally: &mut Tally,
    spans: bool,
) -> Option<Traced> {
    let mut t = Traced {
        run_s: 0.0,
        periods_s: Vec::new(),
        last: Vec::new(),
    };
    for cfg in cfgs {
        let mut probe = PeriodProbe {
            marks: Vec::new(),
            last: None,
        };
        let setup_started = Instant::now();
        let opts = RunOptions::new().probe(&mut probe);
        let o = tally.runs(1, "traced engine", run_engine(cfg, opts))?;
        let end = Instant::now();
        let mut prev = o.run_started;
        if spans {
            let name = format!("core.engine.{:?}", cfg.scheme).to_lowercase();
            tr.record(&name, setup_started, end);
            tr.enter_recorded();
            tr.record("core.setup", setup_started, o.run_started);
        }
        for &mark in &probe.marks {
            if spans {
                tr.record("core.period", prev, mark);
            }
            t.periods_s
                .push(mark.saturating_duration_since(prev).as_secs_f64());
            prev = mark;
        }
        if spans {
            tr.exit_recorded();
        }
        t.run_s += o.run_s;
        t.last.extend(probe.last);
    }
    Some(t)
}

/// One untraced serial pass over `cfgs`.
struct Plain {
    /// Σ `run_to_completion` wall time.
    run_s: f64,
    /// Per-engine `run_to_completion` wall time.
    engine_s: Vec<f64>,
    metrics: Vec<Metrics>,
}

fn plain_pass(
    cfgs: &[SimConfig],
    opts: fn() -> RunOptions<'static>,
    tally: &mut Tally,
) -> Option<Plain> {
    let mut p = Plain {
        run_s: 0.0,
        engine_s: Vec::new(),
        metrics: Vec::new(),
    };
    for cfg in cfgs {
        let o = tally.runs(1, "engine", run_engine(cfg, opts()))?;
        p.run_s += o.run_s;
        p.engine_s.push(o.run_s);
        p.metrics.push(o.metrics);
    }
    Some(p)
}

/// Median of `b / a` over `pairs` back-to-back runs of `a` and `b`.
/// Pairing cancels the host's slow speed changes, which a ratio of two
/// separate medians would not.
fn paired_ratio(
    pairs: usize,
    tally: &mut Tally,
    mut a: impl FnMut(&mut Tally) -> Option<f64>,
    mut b: impl FnMut(&mut Tally) -> Option<f64>,
) -> f64 {
    let mut ratios = Vec::new();
    for _ in 0..pairs {
        let (Some(x), Some(y)) = (a(tally), b(tally)) else {
            break;
        };
        ratios.push(ratio(y, x));
    }
    median(&ratios)
}

/// Makes the traced run of one workload and derives every per-layer
/// metric.
pub fn measure(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut tally = Tally::default();
    let mut tr = Tracer::new(&format!("workload.{}", w.name));
    let cfgs = w.engines(seed, 1);

    let Some(first) = tr.span("untraced", |_| {
        plain_pass(&cfgs, RunOptions::new, &mut tally)
    }) else {
        return Report::failed(tally);
    };
    let reference = first.metrics;
    e2e::check(w, seed, &reference, &mut tally);

    // Untraced and traced passes, back to back, for about half the run
    // length. Only the first traced pass records spans.
    let mut periods = Vec::new();
    let mut coverage = Vec::new();
    let mut overheads = Vec::new();
    let mut last_snaps = Vec::new();
    let mut engine_walls = first.engine_s;
    let mut untraced_runs = vec![first.run_s];
    let started = Instant::now();
    while overheads.len() < PASSES || started.elapsed().as_secs_f64() < seconds / 2.0 {
        let spans = overheads.is_empty();
        let Some(t) = tr.span("traced", |tr| traced_pass(tr, &cfgs, &mut tally, spans)) else {
            break;
        };
        let Some(u) = tr.span("untraced", |_| {
            plain_pass(&cfgs, RunOptions::new, &mut tally)
        }) else {
            break;
        };
        coverage.push(ratio(t.periods_s.iter().sum(), t.run_s));
        periods.extend(t.periods_s.iter().map(|s| s * 1e3));
        overheads.push(ratio(t.run_s, u.run_s) - 1.0);
        engine_walls.extend(u.engine_s);
        untraced_runs.push(u.run_s);
        last_snaps = t.last;
    }

    // Thread scaling: 1 vs 2 engine threads (for the sweep: runner core
    // budget 1 vs 2), and the consistency oracle's cost.
    let (speedup, point_s, busy) = if w.kind == Kind::PaperSweep {
        let specs = w.sweep_specs(seed);
        let jobs = Mutex::new(Vec::new());
        let record = |p: mobicache_experiments::Progress| {
            jobs.lock().expect("progress lock").push(p.job_wall_secs);
        };
        let sweep_s = |budget: usize, tally: &mut Tally| {
            tally
                .runs(
                    cfgs.len(),
                    "sweep",
                    run_sweep(&specs, budget, Some(&record)),
                )
                .map(|(_, wall)| wall)
        };
        let mut walls = Vec::new();
        let speedup = tr.span("experiments.sweep.budget1v2", |_| {
            paired_ratio(
                PASSES,
                &mut tally,
                |t| sweep_s(1, t),
                |t| {
                    jobs.lock().expect("progress lock").clear();
                    let wall = sweep_s(2, t)?;
                    walls.push(wall);
                    Some(wall)
                },
            )
        });
        // 1 / speedup: paired_ratio returns budget-2 ÷ budget-1 walls.
        let jobs = jobs.into_inner().expect("progress lock");
        let busy = ratio(
            jobs.iter().sum(),
            walls.last().copied().unwrap_or(0.0) * w.core_budget as f64,
        );
        (ratio(1.0, speedup), jobs, busy)
    } else {
        let (c1, c2) = (w.engines(seed, 1), w.engines(seed, 2));
        let two_over_one = tr.span("core.threads1v2", |_| {
            paired_ratio(
                PASSES,
                &mut tally,
                |t| plain_pass(&c1, RunOptions::new, t).map(|p| p.run_s),
                |t| plain_pass(&c2, RunOptions::new, t).map(|p| p.run_s),
            )
        });
        let busy = ratio(engine_walls.iter().sum(), untraced_runs.iter().sum());
        (ratio(1.0, two_over_one), engine_walls, busy)
    };
    let short: Vec<SimConfig> = cfgs.iter().map(e2e::shortened).collect();
    let oracle_slowdown = tr.span("core.oracle", |_| {
        paired_ratio(
            PASSES,
            &mut tally,
            |t| plain_pass(&short, RunOptions::new, t).map(|p| p.run_s),
            |t| {
                plain_pass(&short, || RunOptions::new().check_consistency(true), t).map(|p| p.run_s)
            },
        )
    });

    // Per-layer loops on the workload's layer configs.
    let queue_depth = last_snaps
        .iter()
        .map(|s| s.queue_high_water)
        .max()
        .unwrap_or(1);
    let mut ls = LayerSamples::default();
    tr.span("layers", |tr| {
        for cfg in layer_configs(w, &cfgs) {
            let i = cfgs
                .iter()
                .position(|c| c == &cfg)
                .expect("layer config is an engine");
            layer_loops(tr, &cfg, &reference[i], queue_depth, &mut ls);
        }
    });
    // The pool at the sharded shape the thread comparison runs: 2
    // workers, one empty chunk each.
    let pool = WorkerPool::new(2);
    let handshake = tr.span("sim.pool", |_| {
        let times = sample_for(LAYER_BUDGET_S, 100, || {
            pool.run(2, &|c| {
                black_box(c);
            })
        });
        times.iter().map(|s| s * 1e6).collect::<Vec<f64>>()
    });
    drop(pool);
    tr.finish();
    write_trace(w, seed, &tr);

    // Exact counts from the engines' outputs.
    let sum = |f: &dyn Fn(&Metrics) -> u64| reference.iter().map(f).sum::<u64>() as f64;
    let mean =
        |f: &dyn Fn(&Metrics) -> f64| reference.iter().map(f).sum::<f64>() / reference.len() as f64;
    let snap_sum =
        |f: &dyn Fn(&IntervalSnapshot) -> u64| last_snaps.iter().map(f).sum::<u64>() as f64;
    let plan_hits = snap_sum(&|s| s.plan_hits);
    let plan_misses = snap_sum(&|s| s.plan_misses);
    let hits = sum(&|m| m.item_hits);
    let misses = sum(&|m| m.item_misses);

    let metrics = vec![
        ("sim.events", sum(&|m| m.events_processed), "count"),
        ("sim.sched.ns_per_op", median(&ls.sched_ns), "ns"),
        ("sim.sched.queue_high_water", queue_depth as f64, "count"),
        (
            "sim.sched.cascades",
            snap_sum(&|s| s.sched_cascades),
            "count",
        ),
        ("sim.pool.handshake_us", median(&handshake), "us"),
        ("net.channel.ns_per_msg", median(&ls.channel_ns), "ns"),
        (
            "net.downlink_util",
            mean(&|m| m.downlink_utilization),
            "ratio",
        ),
        ("net.uplink_util", mean(&|m| m.uplink_utilization), "ratio"),
        ("net.preemptions", sum(&|m| m.downlink_preemptions), "count"),
        ("server.build_report_us.p50", median(&ls.build_us), "us"),
        (
            "server.build_report_us.p99",
            percentile(&ls.build_us, 0.99),
            "us",
        ),
        ("server.apply_txn_ns", median(&ls.txn_ns), "ns"),
        ("server.process_check_us", median(&ls.check_us), "us"),
        (
            "server.reports.window",
            sum(&|m| m.server.window_reports),
            "count",
        ),
        (
            "server.reports.enlarged",
            sum(&|m| m.server.enlarged_reports),
            "count",
        ),
        ("server.reports.bs", sum(&|m| m.server.bs_reports), "count"),
        (
            "server.tlbs_received",
            sum(&|m| m.server.tlbs_received),
            "count",
        ),
        (
            "server.checks_processed",
            sum(&|m| m.server.checks_processed),
            "count",
        ),
        ("reports.prepare_us", median(&ls.prepare_us), "us"),
        ("reports.plan.decode_us", median(&ls.decode_us), "us"),
        (
            "reports.plan.ns_per_client",
            median(&ls.plan_ns_per_client),
            "ns",
        ),
        (
            "reports.plan.hit_ratio",
            ratio(plan_hits, plan_hits + plan_misses),
            "ratio",
        ),
        (
            "reports.plan.decodes",
            snap_sum(&|s| s.plan_decodes),
            "count",
        ),
        (
            "reports.fanout_words_skipped",
            snap_sum(&|s| s.fanout_words_skipped),
            "count",
        ),
        (
            "cache.stale_walk_ns_per_client",
            median(&ls.walk_ns_per_client),
            "ns",
        ),
        ("cache.lookup_ns", median(&ls.lookup_ns), "ns"),
        ("cache.insert_ns", median(&ls.insert_ns), "ns"),
        ("cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("cache.evictions", sum(&|m| m.cache_evictions), "count"),
        ("client.on_report_us", median(&ls.on_report_us), "us"),
        ("client.tlbs_sent", sum(&|m| m.clients.tlbs_sent), "count"),
        (
            "client.checks_sent",
            sum(&|m| m.clients.checks_sent),
            "count",
        ),
        (
            "client.limbo_episodes",
            sum(&|m| m.clients.limbo_episodes),
            "count",
        ),
        ("client.salvaged", sum(&|m| m.clients.salvaged), "count"),
        ("client.full_drops", sum(&|m| m.clients.full_drops), "count"),
        ("core.period_ms.p50", median(&periods), "ms"),
        ("core.period_ms.p99", percentile(&periods, 0.99), "ms"),
        ("core.shard_speedup", speedup, "ratio"),
        ("core.oracle_slowdown", oracle_slowdown, "ratio"),
        ("core.handoffs", sum(&|m| m.mobility.handoffs), "count"),
        (
            "core.handoffs_deferred",
            sum(&|m| m.mobility.handoffs_deferred),
            "count",
        ),
        ("core.reports_lost", sum(&|m| m.reports_lost), "count"),
        (
            "core.uplink_losses",
            sum(&|m| m.faults.uplink_losses),
            "count",
        ),
        (
            "core.retries_sent",
            sum(&|m| m.faults.retries_sent),
            "count",
        ),
        (
            "core.server_crashes",
            sum(&|m| m.faults.server_crashes),
            "count",
        ),
        ("experiments.point_s.p50", median(&point_s), "s"),
        ("experiments.point_s.p80", percentile(&point_s, 0.8), "s"),
        ("experiments.core_busy_frac", busy, "ratio"),
        ("trace.overhead_frac", median(&overheads), "ratio"),
        ("trace.coverage_frac", median(&coverage), "ratio"),
    ];
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// Writes the spans once, at the end of the run.
fn write_trace(w: &Workload, seed: u64, tr: &Tracer) {
    let dir = std::path::Path::new(
        &std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    )
    .join("perfbench-traces");
    let path = dir.join(format!("{}-s{seed}.json", w.name));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json()));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    for (name, s) in tr.self_times() {
        eprintln!("perfbench: self time {name:<28} {s:>9.4} s");
    }
}
