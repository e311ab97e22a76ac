//! The host-speed reference: a fixed CPU kernel timed alongside the
//! measured work, so CPU-bound figures can be stated as a within-run
//! ratio.
//!
//! On a shared host the CPU speed a process gets drifts by tens of
//! percent between runs a minute apart (on the sizing machine the same
//! plans ran 1.45× slower in some runs than in others, every stage
//! alike). The kernel is the benchmark's own code, so nothing the
//! program under test does changes its cost; its median time over a run
//! measures the speed the host gave that run, and CPU-bound times are
//! reported scaled to a host where it takes [`NOMINAL`].

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel iterations: about 2 ms on a 2-core cloud VM.
const ITERATIONS: u64 = 400_000;

/// One run of the kernel: xorshift-driven updates of a 16 KiB table.
fn kernel() -> u64 {
    let mut table = [0u64; 2048];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..black_box(ITERATIONS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize) & 2047;
        table[k] = table[k].wrapping_add(x);
        if table[k] & 1 == 0 {
            x = x.wrapping_add(i);
        }
    }
    table.iter().fold(0, |a, &b| a ^ b)
}

/// Times one run of the kernel.
fn probe() -> Duration {
    let t0 = Instant::now();
    black_box(kernel());
    t0.elapsed()
}

/// The kernel time the scaled figures are stated for: about its median
/// on the 2-core VM this benchmark was sized on.
pub const NOMINAL: Duration = Duration::from_millis(2);

/// Kernel timings gathered through a run.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    probes: Vec<f64>,
}

impl HostSpeed {
    /// Times the kernel `n` times on the calling thread.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.probes.push(probe().as_secs_f64());
        }
    }

    /// Median kernel time so far, seconds (0 before any sample).
    #[must_use]
    pub fn median_s(&self) -> f64 {
        crate::report::median(&self.probes)
    }

    /// The factor that states a CPU-bound time measured in this run for
    /// a host where the kernel takes [`NOMINAL`]: multiply times by it,
    /// divide rates by it.
    #[must_use]
    pub fn factor(&self) -> f64 {
        let m = self.median_s();
        if m > 0.0 {
            NOMINAL.as_secs_f64() / m
        } else {
            1.0
        }
    }
}
