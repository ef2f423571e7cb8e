//! Deterministic property-test harness for the DESAlign workspace.
//!
//! An in-repo replacement for `proptest`, tuned to this workspace's needs:
//!
//! - **Deterministic, seeded case generation.** Every property derives its
//!   case seeds from the property *name* (FNV-1a hashed) plus a
//!   workspace-wide base seed, so runs are reproducible across machines and
//!   parallel test threads, and two properties in one file never share a
//!   stream. A failure report always prints the case seed needed to replay
//!   exactly that input.
//! - **Fixed iteration counts.** Case counts are part of the test source,
//!   not environment-dependent, so CI time and coverage are predictable.
//! - **Input reporting on failure.** The failing case's `Debug`
//!   representation, its index, and its seed are all part of the panic
//!   message.
//! - **Optional halving-style shrinking.** [`check_shrink`] takes a
//!   candidate-proposing closure; the harness greedily walks to a smaller
//!   failing input (bounded number of steps). [`shrink`] provides the
//!   standard halving proposals for slices and scalars.
//!
//! ```
//! use desalign_testkit as testkit;
//!
//! testkit::check("addition_commutes", 64, |rng| {
//!     (rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0))
//! }, |&(a, b)| {
//!     testkit::ensure!((a + b - (b + a)).abs() < 1e-6, "{a} + {b} not commutative");
//!     Ok(())
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;
pub mod fault;

use std::fmt::Debug;

pub use corrupt::{corrupt_dataset, corrupt_file, mutate_bytes, CorruptionKind};
pub use desalign_tensor::{rng_from_seed, Matrix, Rng64, SliceRandom};
pub use fault::{kill_during_atomic_write, truncate_file, KillAfterWriter};

/// Workspace-wide base seed; combined with the property name per case.
pub const BASE_SEED: u64 = 0xDE5A_1167_0000_0001;

/// Upper bound on greedy shrink adoptions before reporting.
const MAX_SHRINK_STEPS: usize = 200;

/// The seed that regenerates case `i` of property `name`. Hashing the
/// name (FNV-1a) gives each property its own deterministic stream without
/// global state.
pub fn case_seed(name: &str, case: u64) -> u64 {
    BASE_SEED ^ desalign_util::checksum64(name.as_bytes()) ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn render_input<T: Debug>(input: &T) -> String {
    let mut s = format!("{input:#?}");
    const LIMIT: usize = 4000;
    if s.len() > LIMIT {
        let mut cut = LIMIT;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
        s.push_str("… (truncated)");
    }
    s
}

/// Runs `prop` against `cases` inputs drawn from `gen`, panicking with a
/// replayable report on the first failure. No shrinking.
pub fn check<T, G, P>(name: &str, cases: u64, mut gen: G, mut prop: P)
where
    T: Debug,
    G: FnMut(&mut Rng64) -> T,
    P: FnMut(&T) -> Result<(), String>,
{
    run(name, cases, &mut gen, &mut prop, None::<&mut dyn FnMut(&T) -> Vec<T>>);
}

/// Like [`check`], but on failure greedily minimizes the input: `shrink`
/// proposes smaller candidates (see the [`shrink`] module for halving
/// helpers) and the harness adopts the first candidate that still fails,
/// repeating until no proposal fails or the step budget runs out.
pub fn check_shrink<T, G, P, S>(name: &str, cases: u64, mut gen: G, mut shrink: S, mut prop: P)
where
    T: Debug,
    G: FnMut(&mut Rng64) -> T,
    P: FnMut(&T) -> Result<(), String>,
    S: FnMut(&T) -> Vec<T>,
{
    let mut dyn_shrink = |t: &T| shrink(t);
    run(name, cases, &mut gen, &mut prop, Some(&mut dyn_shrink as &mut dyn FnMut(&T) -> Vec<T>));
}

fn run<T, G, P>(name: &str, cases: u64, gen: &mut G, prop: &mut P, mut shrink: Option<&mut dyn FnMut(&T) -> Vec<T>>)
where
    T: Debug,
    G: FnMut(&mut Rng64) -> T,
    P: FnMut(&T) -> Result<(), String>,
{
    assert!(cases > 0, "property '{name}' must run at least one case");
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut rng = rng_from_seed(seed);
        let input = gen(&mut rng);
        let Err(message) = prop(&input) else { continue };

        // Greedy halving-style minimization, when a shrinker was given.
        let (mut cur, mut cur_msg, mut steps) = (input, message, 0usize);
        if let Some(shrink) = shrink.as_deref_mut() {
            'outer: while steps < MAX_SHRINK_STEPS {
                for candidate in shrink(&cur) {
                    if let Err(msg) = prop(&candidate) {
                        cur = candidate;
                        cur_msg = msg;
                        steps += 1;
                        continue 'outer;
                    }
                }
                break;
            }
        }
        let shrunk_note = if steps > 0 { format!(" (shrunk {steps} steps)") } else { String::new() };
        panic!(
            "property '{name}' failed at case {case}/{cases} (case seed {seed:#x}){shrunk_note}\n\
             error: {cur_msg}\n\
             input: {}",
            render_input(&cur),
        );
    }
}

/// Halving-style shrink proposals for common input shapes.
pub mod shrink {
    /// Proposals for a float slice: drop the first/second half, halve every
    /// element towards zero, and zero it outright.
    pub fn halve_f32s(v: &[f32]) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        if v.len() > 1 {
            out.push(v[..v.len() / 2].to_vec());
            out.push(v[v.len() / 2..].to_vec());
        }
        if v.iter().any(|&x| x != 0.0) {
            out.push(v.iter().map(|&x| x / 2.0).collect());
            out.push(vec![0.0; v.len()]);
        }
        out
    }

    /// Proposals for a scalar: halve towards zero, and zero.
    pub fn halve_f32(x: f32) -> Vec<f32> {
        if x == 0.0 {
            Vec::new()
        } else {
            vec![x / 2.0, 0.0]
        }
    }

    /// Proposals for a count: halve towards `min`, and `min` itself.
    pub fn halve_usize(x: usize, min: usize) -> Vec<usize> {
        if x <= min {
            Vec::new()
        } else {
            vec![min + (x - min) / 2, min]
        }
    }
}

/// The SplitMix64 finalizer: a stateless 64-bit mix, so element `i` of a
/// fixture is a pure function of `seed + i`.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random embeddings in `[-1, 1)`: element `i`
/// (row-major) is [`splitmix`]`(seed + i)`'s top 24 bits, scaled. The serve
/// tests and the serve and chaos benches build their engines over these.
pub fn synth_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| ((splitmix(seed.wrapping_add(i as u64)) >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Common generators for the workspace's property tests.
pub mod gen {
    use desalign_tensor::{Matrix, Rng64};

    /// Vector of uniform floats in `[lo, hi)`.
    pub fn f32_vec(rng: &mut Rng64, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(lo..hi)).collect()
    }

    /// Matrix with uniform entries in `[lo, hi)`.
    pub fn matrix(rng: &mut Rng64, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
        Matrix::from_vec(rows, cols, f32_vec(rng, rows * cols, lo, hi))
    }

    /// Vector of uniform indices in `[0, bound)`.
    pub fn usize_vec(rng: &mut Rng64, len: usize, bound: usize) -> Vec<usize> {
        (0..len).map(|_| rng.gen_range(0..bound)).collect()
    }

    /// Vector of fair coin flips.
    pub fn bool_vec(rng: &mut Rng64, len: usize) -> Vec<bool> {
        (0..len).map(|_| rng.gen_bool(0.5)).collect()
    }
}

/// Fails the enclosing property with a formatted message unless `cond`
/// holds. Usable only inside closures returning `Result<(), String>`.
#[macro_export]
macro_rules! ensure {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the enclosing property unless both sides are equal, reporting both.
#[macro_export]
macro_rules! ensure_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return Err(format!(
                "{} != {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                left,
                right
            ));
        }
    }};
}

/// Fails the enclosing property if both sides are equal.
#[macro_export]
macro_rules! ensure_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return Err(format!("{} == {} (both {:?})", stringify!($a), stringify!($b), left));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0u64;
        check("always_true", 32, |rng| rng.gen_range(0..10usize), |_| {
            seen += 1;
            Ok(())
        });
        assert_eq!(seen, 32);
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let mut v = Vec::new();
            check("determinism_probe", 8, |rng| rng.gen_range(0..1_000_000usize), |&x| {
                v.push(x);
                Ok(())
            });
            v
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn different_properties_get_different_streams() {
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
    }

    #[test]
    fn failing_property_reports_input_and_seed() {
        let err = std::panic::catch_unwind(|| {
            check("expected_failure", 16, |rng| rng.gen_range(10..20usize), |&x| {
                ensure!(x < 10, "x = {x} too big");
                Ok(())
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("expected_failure"), "{msg}");
        assert!(msg.contains("case seed"), "{msg}");
        assert!(msg.contains("too big"), "{msg}");
    }

    #[test]
    fn shrinking_minimizes_the_failing_vector() {
        // Property: fails whenever any element exceeds 0.5. Halving the
        // vector must home in on a small witness rather than report the
        // original 64-element input.
        let err = std::panic::catch_unwind(|| {
            check_shrink(
                "shrunk_failure",
                16,
                |rng| gen::f32_vec(rng, 64, 0.0, 1.0),
                |v| shrink::halve_f32s(v),
                |v| {
                    ensure!(v.iter().all(|&x| x <= 0.5), "element above threshold in {} elems", v.len());
                    Ok(())
                },
            );
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("shrunk"), "{msg}");
        // The witness must have been cut well below the original 64.
        let witness_len: usize = msg
            .split("in ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("witness length in message");
        assert!(witness_len <= 8, "shrinker left {witness_len} elements: {msg}");
    }

    #[test]
    fn ensure_macros_produce_errors() {
        let f = |x: usize| -> Result<(), String> {
            ensure!(x > 1);
            ensure_eq!(x % 2, 0);
            ensure_ne!(x, 6);
            Ok(())
        };
        assert!(f(4).is_ok());
        assert!(f(0).unwrap_err().contains("assertion failed"));
        assert!(f(3).unwrap_err().contains("left"));
        assert!(f(6).unwrap_err().contains("=="));
    }
}
