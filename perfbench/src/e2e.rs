//! The untraced run: end-to-end metrics plus the output check.
//!
//! Order inside one process: a warm-up pass (whose metrics are the
//! reference for every later check), the timed passes until `--seconds`
//! have elapsed, the peak-RSS reading, then the output check. Timings are
//! medians over the timed passes, scaled to the reference host speed
//! (`calib`).

use std::time::Instant;

use mobicache::{IntervalSampler, Metrics, RunOptions};
use mobicache_model::SimConfig;

use crate::calib::Calibrator;
use crate::exec::{digest, run_engine, run_sweep, setup_s};
use crate::workloads::{Kind, Workload};
use crate::{median, peak_rss_mb, percentile, Report};

/// Timed passes made even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

/// Engine runs attempted and failed (error, panic or failed check).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `runs` engine runs; `Err` marks all of them failed.
    pub fn runs<T>(&mut self, runs: usize, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += runs as u64;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("perfbench: {what}: {e}");
                self.failed += runs as u64;
                None
            }
        }
    }

    /// Counts one engine run whose output check returned `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            eprintln!("perfbench: output check failed: {what}");
            self.failed += 1;
        }
    }
}

/// One pass over the workload's engines.
pub struct Pass {
    /// Wall time of the pass, set-up excluded (except inside the
    /// sweep's runner).
    pub run_s: f64,
    /// Per-engine metrics, in `Workload::engines` order.
    pub metrics: Vec<Metrics>,
}

/// Runs every engine of the workload once.
pub fn pass(w: &Workload, seed: u64, cfgs: &[SimConfig], tally: &mut Tally) -> Option<Pass> {
    if w.kind == Kind::PaperSweep {
        let specs = w.sweep_specs(seed);
        let (metrics, wall) =
            tally.runs(cfgs.len(), "sweep", run_sweep(&specs, w.core_budget, None))?;
        return Some(Pass {
            run_s: wall,
            metrics,
        });
    }
    let mut p = Pass {
        run_s: 0.0,
        metrics: Vec::new(),
    };
    for cfg in cfgs {
        let what = format!("{:?} engine", cfg.scheme);
        let o = tally.runs(1, &what, run_engine(cfg, RunOptions::default()))?;
        p.run_s += o.run_s;
        p.metrics.push(o.metrics);
    }
    Some(p)
}

/// `true` when the sampler's interval deltas add up to the run totals.
pub fn telescopes(sampler: &IntervalSampler, m: &Metrics) -> bool {
    let s = sampler.summed_totals();
    let reports = m.server.window_reports
        + m.server.enlarged_reports
        + m.server.bs_reports
        + m.server.at_reports
        + m.server.sig_reports;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + b.abs());
    s.queries_issued == m.queries_issued
        && s.queries_answered == m.queries_answered
        && s.item_hits == m.item_hits
        && s.item_misses == m.item_misses
        && s.cache_evictions == m.cache_evictions
        && s.disconnections == m.disconnections
        && s.reports_lost == m.reports_lost
        && s.events_delivered == m.events_processed
        && s.reports_broadcast == reports
        && s.tlbs_received == m.server.tlbs_received
        && s.checks_processed == m.server.checks_processed
        && s.handoffs == m.mobility.handoffs
        && s.server_crashes == m.faults.server_crashes
        && close(s.client_tx_bits, m.client_tx_bits)
        && close(s.client_rx_bits, m.client_rx_bits)
}

/// A copy of `cfg` cut to a tenth of its horizon (at least ten
/// broadcast periods), for the oracle-checked run.
pub fn shortened(cfg: &SimConfig) -> SimConfig {
    let horizon = (cfg.sim_time_secs / 10.0).max(10.0 * cfg.broadcast_period_secs);
    cfg.clone().with_sim_time(horizon)
}

/// The output check, outside the timed passes:
/// - each engine's metrics digest at 2 engine threads equals the
///   1-thread reference;
/// - a shortened copy of every engine runs under the consistency oracle
///   without a violation;
/// - interval-snapshot deltas add up to the run totals in both.
///
/// `paper-sweep` skips the thread-count part: its runner splits the core
/// budget between points, so its engines run serially.
pub fn check(w: &Workload, seed: u64, reference: &[Metrics], tally: &mut Tally) {
    if w.kind != Kind::PaperSweep {
        for (cfg, want) in w.engines(seed, 2).iter().zip(reference) {
            let what = format!("{:?} at 2 threads", cfg.scheme);
            let mut sampler = IntervalSampler::every(10);
            match run_engine(cfg, RunOptions::new().probe(&mut sampler)) {
                Ok(o) => tally.check(
                    digest(&o.metrics) == digest(want) && telescopes(&sampler, &o.metrics),
                    &what,
                ),
                Err(e) => tally.check(false, &format!("{what}: {e}")),
            }
        }
    }
    for cfg in w.engines(seed, 1) {
        let what = format!("{:?} under the consistency oracle", cfg.scheme);
        let mut sampler = IntervalSampler::every(10);
        let opts = RunOptions::new()
            .check_consistency(true)
            .probe(&mut sampler);
        match run_engine(&shortened(&cfg), opts) {
            Ok(o) => tally.check(telescopes(&sampler, &o.metrics), &what),
            Err(e) => tally.check(false, &format!("{what}: {e}")),
        }
    }
}

/// Measures the end-to-end metrics of one workload for `seconds`.
pub fn measure(w: &Workload, seed: u64, seconds: f64) -> Report {
    let cfgs = w.engines(seed, 1);
    let mut tally = Tally::default();
    let Some(warm) = pass(w, seed, &cfgs, &mut tally) else {
        return Report::failed(tally);
    };
    let want: Vec<u64> = warm.metrics.iter().map(digest).collect();
    let mut cal = Calibrator::new();
    let (mut runs, mut setups, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while runs.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        // Set-up is timed apart from the pass, because `paper-sweep`'s
        // runner builds its engines inside the sweep.
        let ((p, setup), scale) = cal.bracket(|| {
            let p = pass(w, seed, &cfgs, &mut tally);
            (p, setup_s(&cfgs))
        });
        let Some(p) = p else {
            break;
        };
        let setup = setup.expect("the warm-up pass built these engines");
        // The same seed must reproduce the warm-up pass bit for bit.
        let same = p.metrics.iter().map(digest).eq(want.iter().copied());
        if !same {
            tally.check(false, "pass differs from the warm-up pass");
        }
        runs.push(p.run_s * scale);
        setups.push(setup * scale);
        wall.push(p.run_s);
    }
    // Read before the output check, whose runs are not the workload's.
    let peak = peak_rss_mb();
    check(w, seed, &warm.metrics, &mut tally);
    eprintln!(
        "perfbench: {} passes; run_s {:.4} (unscaled wall: median {:.4}, fastest {:.4})",
        runs.len(),
        median(&runs),
        median(&wall),
        percentile(&wall, 0.0),
    );

    let answered: u64 = warm.metrics.iter().map(|m| m.queries_answered).sum();
    let validity_bits: f64 = warm.metrics.iter().map(|m| m.uplink_validity_bits).sum();
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("run_s", median(&runs), "s"),
            ("peak_rss_mb", peak, "MiB"),
            ("queries_answered", answered as f64, "count"),
            (
                "uplink_validity_bits_per_query",
                validity_bits / answered as f64,
                "bits",
            ),
        ],
    }
}
