//! The four workloads: which engines each one runs, built from its seed.
//!
//! Every workload is a closed batch job: the engines run to a fixed
//! simulated horizon and nothing arrives from outside. The seed is the
//! only input that varies between runs.

use mobicache_experiments::figures::{fig05, fig13};
use mobicache_experiments::FigureSpec;
use mobicache_model::{CellTopology, ChannelFaults, FaultPlan, RetryPolicy, Scheme, SimConfig};

/// Fraction of the paper's 100 000 s horizon each `paper-sweep` point
/// simulates, so one sweep takes about half a second of host time.
pub const SWEEP_TIME_FACTOR: f64 = 0.2;

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PaperSweep,
    ReportStress,
    Crowd,
    RoamFaults,
}

/// A workload and its fixed host shape. Every engine is timed at one
/// engine thread: at 2, `crowd`'s run time spread by 12–31 % between
/// runs on the 2-vCPU reference host, because a phase-1 barrier waits on
/// the second vCPU, whose slow spells the calibration kernel cannot see.
/// The output check and the traced run also run the engines at 2.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Runner core budget (`paper-sweep` only; 1 elsewhere: engines run
    /// one after another).
    pub core_budget: usize,
    /// Seed used when `--seed` is not given.
    pub default_seed: u64,
}

pub const ALL: [Workload; 4] = [
    Workload {
        kind: Kind::PaperSweep,
        name: "paper-sweep",
        core_budget: 2,
        default_seed: 0x1997_AD07,
    },
    Workload {
        kind: Kind::ReportStress,
        name: "report-stress",
        core_budget: 1,
        default_seed: 0x5EED_0001,
    },
    Workload {
        kind: Kind::Crowd,
        name: "crowd",
        core_budget: 1,
        default_seed: 0x5EED_0002,
    },
    Workload {
        kind: Kind::RoamFaults,
        name: "roam-faults",
        core_budget: 1,
        default_seed: 0x5EED_0003,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The sweep specs of `paper-sweep` (Fig 5 and Fig 13, four paper
    /// schemes each), every point re-seeded with `seed`.
    pub fn sweep_specs(&self, seed: u64) -> Vec<FigureSpec> {
        assert_eq!(self.kind, Kind::PaperSweep);
        let mut specs = vec![fig05::spec(), fig13::spec()];
        for spec in &mut specs {
            for (_, cfg) in &mut spec.points {
                cfg.seed = seed;
            }
        }
        specs
    }

    /// One config per engine the workload runs, at `threads` engine
    /// threads. For `paper-sweep` these are the sweep's jobs exactly as
    /// `run_figure_with` derives them (scheme and scaled horizon).
    pub fn engines(&self, seed: u64, threads: u32) -> Vec<SimConfig> {
        let cfgs = match self.kind {
            Kind::PaperSweep => self
                .sweep_specs(seed)
                .iter()
                .flat_map(|spec| {
                    spec.schemes.iter().flat_map(move |&scheme| {
                        spec.points.iter().map(move |(_, base)| {
                            let mut cfg = base.clone().with_scheme(scheme);
                            cfg.sim_time_secs = (cfg.sim_time_secs * SWEEP_TIME_FACTOR)
                                .max(10.0 * cfg.broadcast_period_secs);
                            cfg
                        })
                    })
                })
                .collect(),
            Kind::ReportStress => vec![
                stress(Scheme::Aaw).with_sim_time(40_000.0),
                stress(Scheme::Bs).with_sim_time(12_000.0),
            ],
            Kind::Crowd => vec![crowd()],
            Kind::RoamFaults => vec![
                roam(Scheme::Aaw, 40_000.0),
                roam(Scheme::SimpleChecking, 40_000.0),
            ],
        };
        cfgs.into_iter()
            .map(|cfg| cfg.with_seed(seed).with_threads(threads))
            .collect()
    }
}

/// Single cell, 40k items, 200 clients with 800-item caches, an update
/// every 5 s: every window report is full and BS reports are large.
fn stress(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::paper_default()
        .with_scheme(scheme)
        .with_db_size(40_000)
        .with_num_clients(200);
    cfg.mean_update_interarrival_secs = 5.0;
    cfg
}

/// 100 000 AAW clients over 1 000 items. Both channels run at 40 times
/// the paper's 10 kbps and are still saturated (the clients ask for
/// about 1 000 items a second; the downlink carries about 6), so about
/// 6 000 queries are answered instead of 150. Every client that gets an
/// answer then sleeps, past the 200 s window in most cases (mean 400 s),
/// so its reconnection re-announces its `Tlb`: the uplink cost is never
/// zero and rests on enough `Tlb`s to be steady across seeds.
fn crowd() -> SimConfig {
    let mut cfg = SimConfig::paper_default()
        .with_scheme(Scheme::Aaw)
        .with_num_clients(100_000)
        .with_db_size(1_000)
        .with_sim_time(1_000.0);
    cfg.downlink_bps = 400_000.0;
    cfg.uplink_bps = 400_000.0;
    cfg.p_disconnect = 1.0;
    cfg.mean_disconnect_secs = 400.0;
    cfg
}

/// Four cells with roaming clients, dozing, bursty downlink loss, lossy
/// uplink with retries and a server crash every 5 000 s.
fn roam(scheme: Scheme, horizon_secs: f64) -> SimConfig {
    let crash_every = 5_000.0;
    let crashes = (1..)
        .map(|k| f64::from(k) * crash_every)
        .take_while(|&t| t < horizon_secs)
        .collect();
    let mut cfg = SimConfig::paper_default()
        .with_scheme(scheme)
        .with_num_clients(400)
        .with_sim_time(horizon_secs)
        .with_cells(CellTopology {
            cells: 4,
            mean_residency_secs: 250.0,
            handoff_secs: 12.0,
            p_roam: 0.8,
        })
        .with_faults(FaultPlan {
            downlink: ChannelFaults {
                p_enter_burst: 0.05,
                mean_burst_intervals: 3.0,
                p_loss_good: 0.01,
                p_loss_bad: 0.6,
            },
            p_uplink_loss: 0.3,
            retry: RetryPolicy::default(),
            crashes,
            recovery_secs: 60.0,
        });
    cfg.p_disconnect = 0.3;
    cfg.mean_disconnect_secs = 400.0;
    cfg
}
