//! Host-speed calibration for the timed repetitions.
//!
//! On a shared host, memory-bound work runs 10–40% slower for minutes at
//! a time while neighbours contend for caches and memory bandwidth; the
//! medians of whole runs drift with it. A frozen kernel that streams
//! through a 32 MiB buffer slows down with the same contention. So the
//! kernel runs between repetitions, and a run's times are rescaled to the
//! kernel's speed on the quiet host: `calibrated = raw × REFERENCE_S /
//! median(kernel)`. The kernel is benchmark code: no change to the program
//! under test can move it.

use std::hint::black_box;
use std::time::Instant;

/// Words streamed per pass (32 MiB).
pub const BUFFER_WORDS: usize = 4 << 20;

/// Bytes the kernel keeps allocated while a [`Calibrator`] lives.
pub const BUFFER_BYTES: usize = BUFFER_WORDS * std::mem::size_of::<u64>();

/// Passes per kernel run.
const PASSES: usize = 8;

/// Seconds one kernel run takes between repetitions on the two-vCPU
/// x86-64 host the benchmark was sized on, when that host is quiet: the
/// speed calibrated seconds refer to.
pub const REFERENCE_S: f64 = 0.0125;

/// The calibration kernel and its buffer.
pub struct Calibrator {
    buf: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Allocates and touches the buffer.
    pub fn new() -> Self {
        Self {
            buf: (0..BUFFER_WORDS as u64).collect(),
        }
    }

    /// Seconds of one kernel run now.
    pub fn kernel_s(&self) -> f64 {
        let t = Instant::now();
        let mut sum = 0u64;
        for _ in 0..PASSES {
            for &x in black_box(&self.buf[..]) {
                sum = sum.wrapping_add(x);
            }
        }
        black_box(sum);
        t.elapsed().as_secs_f64()
    }
}
