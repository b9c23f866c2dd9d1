//! Host-speed calibration for the end-to-end timings.
//!
//! On 2-vCPU KVM guests (Intel Xeon, family 6 model 207) the host
//! switches between a fast and a slow state that lasts from seconds to
//! minutes: the same engine run takes 1.5–1.7× longer in the slow state,
//! in user CPU time as much as in wall time. A median over one run's
//! passes then measures how long the host stayed slow, not the code. So
//! every pass is bracketed by a fixed kernel that uses no repository
//! code (an unstable sort of 200 000 scrambled `u32`s), and its wall
//! times are scaled by `REFERENCE_S / kernel time`: they read as seconds
//! on such a guest in its fast state. Over 90 s of a fixed compute-bound
//! engine run the scaled times stayed within about ±6 %, against ±26 %
//! for the raw wall times. Memory-bound runs (`crowd`) follow the kernel
//! less closely.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time on the reference guest in its fast state
/// (10th percentile of 2 293 medians-of-3 over 30 s).
pub const REFERENCE_S: f64 = 3.36e-3;

/// Keys sorted by the kernel.
const KEYS: u32 = 200_000;

/// Times the calibration kernel.
pub struct Calibrator {
    keys: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            keys: Vec::with_capacity(KEYS as usize),
        }
    }

    /// The median of three timed runs of the kernel, seconds.
    fn kernel_s(&mut self) -> f64 {
        let mut runs = [0.0; 3];
        for r in &mut runs {
            self.keys.clear();
            self.keys
                .extend((0..KEYS).map(|i| i.wrapping_mul(0x9E37_79B1)));
            let started = Instant::now();
            self.keys.sort_unstable();
            black_box(&self.keys);
            *r = started.elapsed().as_secs_f64();
        }
        runs.sort_by(f64::total_cmp);
        runs[1]
    }

    /// Runs `f` between two kernel timings; returns its result and the
    /// factor that scales its wall times to the reference host speed.
    pub fn bracket<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.kernel_s();
        let r = f();
        let after = self.kernel_s();
        (r, 2.0 * REFERENCE_S / (before + after))
    }
}
