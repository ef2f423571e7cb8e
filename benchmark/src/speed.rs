//! The host speed probe, and the scaling of CPU times by it.
//!
//! On a shared host the same code burns a different amount of CPU time from
//! one second to the next: other tenants on the sibling hyperthreads and in
//! the shared caches slow every instruction, and steal-free CPU time still
//! counts the slowdown. On the reference host, back-to-back engine builds
//! in one serve process took between 0.53 and 0.93 CPU seconds, and the
//! probe below moved with them (4.7 to 7.4 ms).
//!
//! So the benchmark times a fixed kernel of its own — a naive `f32` matrix
//! product and a read of one word per cache line of a 32 MiB buffer, on
//! [`POOL_THREADS`] threads at once like the program's pool — right before
//! and right after each measured operation, and reports the operation's
//! CPU time scaled by [`PROBE_REFERENCE_S`] / (the mean of the two probes):
//! what it would have taken at the reference host's speed. The serve open
//! loop, whose requests overlap, is bracketed by bursts of probes instead
//! (see `serve::open_loop`). The unscaled values and the probe median are
//! printed as facts. The kernel is not the program's code, so a change to
//! the program cannot move it, and shows in full.

use crate::POOL_THREADS;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Probe CPU time (all probe threads) on the reference host, a 2-vCPU
/// Xeon VM, rounded. Scaled CPU times read as seconds at that speed.
pub const PROBE_REFERENCE_S: f64 = 6.0e-3;

/// Side of the probe's square matrices (3 × 144 KiB, resident in L2).
const N: usize = 192;

/// Words of the buffer the probe streams through, split between its
/// threads: 32 MiB, far beyond L2, so the stream reads the shared
/// last-level cache or memory, which other tenants contend for.
const STREAM_WORDS: usize = 4 << 20;

/// A probe older than this is not reused as the "before" probe of a
/// measurement.
const PROBE_FRESH: Duration = Duration::from_millis(50);

/// One measured call: wall and CPU seconds, and the CPU seconds scaled to
/// the reference host's speed.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub scaled_cpu_s: f64,
}

impl std::ops::Add for Sample {
    type Output = Sample;
    fn add(self, o: Sample) -> Sample {
        Sample {
            wall_s: self.wall_s + o.wall_s,
            cpu_s: self.cpu_s + o.cpu_s,
            scaled_cpu_s: self.scaled_cpu_s + o.scaled_cpu_s,
        }
    }
}

/// The probes of one run.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
    last: Option<(Instant, f64)>,
}

impl HostSpeed {
    /// Times the probe and returns the CPU seconds it took.
    fn probe(&mut self) -> f64 {
        let cpu = probe_cpu_s();
        self.samples.push(cpu);
        self.last = Some((Instant::now(), cpu));
        cpu
    }

    /// Runs `f` in a benchmark span named `name` between two probes (the
    /// first is the previous call's second when that is fresh) and scales
    /// its CPU time by the mean of the two.
    pub fn measure<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Sample) {
        let before = match self.last {
            Some((at, cpu)) if at.elapsed() < PROBE_FRESH => cpu,
            _ => self.probe(),
        };
        let (out, took) = crate::timed(name, f);
        let after = self.probe();
        let sample =
            Sample { wall_s: took.wall_s, cpu_s: took.cpu_s, scaled_cpu_s: scale(took.cpu_s, (before + after) / 2.0) };
        (out, sample)
    }

    /// Takes `n` probes now.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.probe();
        }
    }

    /// `cpu` seconds scaled by the median of the probes taken so far.
    pub fn scale_by_median(&self, cpu: f64) -> f64 {
        scale(cpu, self.median_s())
    }

    /// The median probe CPU seconds of the run (NaN before any probe).
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// Probes taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// `cpu` seconds measured while the probe took `probe_s`, scaled to the
/// reference host's speed.
fn scale(cpu: f64, probe_s: f64) -> f64 {
    cpu * PROBE_REFERENCE_S / probe_s
}

/// Runs the kernel on [`POOL_THREADS`] threads at once (this one and
/// scoped helpers) and returns the sum of their thread CPU seconds, each
/// thread timing only its own kernel.
fn probe_cpu_s() -> f64 {
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..POOL_THREADS).map(|part| s.spawn(move || timed_kernel(part))).collect();
        timed_kernel(0) + helpers.into_iter().map(|h| h.join().expect("probe thread panicked")).sum::<f64>()
    })
}

/// One probe thread's share: the matrix product, then one word of every
/// cache line of its part of the stream buffer. Returns the thread CPU
/// seconds of both.
fn timed_kernel(part: usize) -> f64 {
    static STREAM: OnceLock<Vec<u64>> = OnceLock::new();
    let stream = STREAM.get_or_init(|| vec![1; STREAM_WORDS]);
    let words = STREAM_WORDS / POOL_THREADS;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.5).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.25).collect();
    let mut c = vec![0f32; N * N];
    let t0 = crate::host::thread_cpu_seconds();
    for i in 0..N {
        for k in 0..N {
            let x = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += x * b[k * N + j];
            }
        }
    }
    std::hint::black_box(&c);
    let sum = stream[part * words..(part + 1) * words].iter().step_by(8).fold(0u64, |s, &w| s.wrapping_add(w));
    std::hint::black_box(sum);
    crate::host::thread_cpu_seconds() - t0
}
