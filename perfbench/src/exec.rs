//! Running engines and sweeps through the public `mobicache` API, with
//! panics and configuration errors turned into failed runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mobicache::{Metrics, RunOptions, Simulation};
use mobicache_experiments::{
    run_figure_with, CoreSplitPolicy, FigureSpec, Progress, RunReporting, RunScale,
};
use mobicache_model::SimConfig;

use crate::workloads::SWEEP_TIME_FACTOR;

/// One engine run: its metrics and the host time of its run.
pub struct Outcome {
    pub metrics: Metrics,
    /// `run_to_completion` wall time, seconds.
    pub run_s: f64,
    /// When `run_to_completion` was called.
    pub run_started: Instant,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Builds and runs one engine; an invalid config or a panic (the
/// consistency oracle panics on a violation) is an `Err`.
pub fn run_engine(cfg: &SimConfig, opts: RunOptions<'_>) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let sim = Simulation::new(cfg, opts).map_err(|e| e.to_string())?;
        let run_started = Instant::now();
        let result = sim.run_to_completion();
        Ok(Outcome {
            metrics: result.metrics,
            run_s: run_started.elapsed().as_secs_f64(),
            run_started,
        })
    }))
    .unwrap_or_else(|p| Err(panic_text(p)))
}

/// Builds (and drops) every engine of `cfgs` three times over and
/// returns the median of the three summed `Simulation::new` wall times.
/// A round may fault in fresh pages or reuse freed memory, depending on
/// the allocator's state; the median is the steady construction cost.
pub fn setup_s(cfgs: &[SimConfig]) -> Result<f64, String> {
    let mut rounds = [0.0; 3];
    for round in &mut rounds {
        for cfg in cfgs {
            let started = Instant::now();
            let sim = Simulation::new(cfg, RunOptions::default()).map_err(|e| e.to_string())?;
            *round += started.elapsed().as_secs_f64();
            drop(sim);
        }
    }
    rounds.sort_by(f64::total_cmp);
    Ok(rounds[1])
}

/// Runs the sweep specs one after another through `run_figure_with` at
/// `budget` cores. Returns every point's metrics in spec → scheme →
/// point order (the order of `Workload::engines`) and the wall time.
pub fn run_sweep(
    specs: &[FigureSpec],
    budget: usize,
    on_progress: Option<&(dyn Fn(Progress) + Sync)>,
) -> Result<(Vec<Metrics>, f64), String> {
    let scale = RunScale {
        time_factor: SWEEP_TIME_FACTOR,
        max_threads: Some(budget),
        replications: 1,
        split: CoreSplitPolicy::Auto,
    };
    let reporting = RunReporting {
        on_progress,
        ..RunReporting::default()
    };
    catch_unwind(AssertUnwindSafe(|| {
        let started = Instant::now();
        let mut metrics = Vec::new();
        for spec in specs {
            let fig = run_figure_with(spec, scale, reporting).map_err(|e| e.to_string())?;
            for series in fig.series {
                metrics.extend(series.points.into_iter().map(|p| p.metrics));
            }
        }
        Ok((metrics, started.elapsed().as_secs_f64()))
    }))
    .unwrap_or_else(|p| Err(panic_text(p)))
}

/// FNV-1a of the `Debug` rendering, the digest the determinism suite
/// pins.
pub fn digest(m: &Metrics) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{m:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}
