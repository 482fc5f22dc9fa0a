//! Stress tests of the thread pool behind the parallel iterators, through
//! the public API only: nested parallel-for calls, concurrent submitters
//! with panicking jobs, and many rounds of random lengths, chunk sizes and
//! `min_len`s. Every run must apply its closure to each index exactly once,
//! a chunked run must hand each chunk its own index and elements, and a
//! reduction must be bitwise equal to the sequential index-ordered one.
//!
//! The pool is sized once per process from `GRIDSIM_POOL_THREADS`; run this
//! suite under several values (1, 2, 4) to cover the inline, small and
//! oversubscribed pools.

use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Once;

/// Marker in the payload of every deliberately injected panic.
const INJECTED: &str = "injected panic";

/// Keep injected panics out of the test output; every other panic still
/// reaches the default hook.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(INJECTED));
            if !injected {
                default(info);
            }
        }));
    });
}

/// SplitMix64: a small deterministic generator for round shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A value whose sum depends on the order of addition.
fn term(seed: u64, i: usize) -> f64 {
    ((seed as f64 + i as f64) * 0.618_033_988_7).sin() * 10f64.powi((i % 7) as i32 - 3)
}

fn counters(n: usize) -> Vec<AtomicU32> {
    (0..n).map(|_| AtomicU32::new(0)).collect()
}

fn assert_each_once(hits: &[AtomicU32], what: &str) {
    for (i, h) in hits.iter().enumerate() {
        let n = h.load(Ordering::Relaxed);
        assert_eq!(n, 1, "{what}: index {i} ran {n} times");
    }
}

#[test]
fn nested_parallel_for_inside_a_chunk() {
    let (rows, cols) = (48, 301);
    let hits = counters(rows * cols);
    let mut sums = vec![0.0f64; rows];
    sums.par_iter_mut()
        .with_min_len(1)
        .enumerate()
        .for_each(|(r, out)| {
            let row = &hits[r * cols..(r + 1) * cols];
            let mut marks = vec![0u8; cols];
            marks
                .par_iter_mut()
                .with_min_len(1)
                .enumerate()
                .for_each(|(c, m)| {
                    row[c].fetch_add(1, Ordering::Relaxed);
                    *m = 1;
                });
            assert!(marks.iter().all(|&m| m == 1), "row {r}: inner write lost");
            *out = marks
                .par_iter()
                .with_min_len(1)
                .enumerate()
                .map(|(c, _)| term(r as u64, c))
                .sum();
        });
    assert_each_once(&hits, "nested");
    for (r, s) in sums.iter().enumerate() {
        let expect: f64 = (0..cols).map(|c| term(r as u64, c)).sum();
        assert_eq!(s.to_bits(), expect.to_bits(), "row {r}");
    }
}

#[test]
fn concurrent_submitters_keep_their_panics() {
    quiet_injected_panics();
    let (submitters, rounds, len) = (6usize, 24usize, 2_000usize);
    std::thread::scope(|scope| {
        for t in 0..submitters {
            scope.spawn(move || {
                for round in 0..rounds {
                    let doomed = (t + round) % 3 == 0;
                    let victim = (t * 131 + round * 17) % len;
                    let hits = counters(len);
                    let data: Vec<usize> = (0..len).collect();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        data.par_iter()
                            .with_min_len(1 + round % 5)
                            .enumerate()
                            .map(|(i, _)| {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                                if doomed && i == victim {
                                    panic!("{INJECTED} t{t} r{round}");
                                }
                                term((t * rounds + round) as u64, i)
                            })
                            .sum::<f64>()
                    }));
                    let what = format!("submitter {t} round {round}");
                    match outcome {
                        Ok(sum) => {
                            assert!(!doomed, "{what}: the injected panic was lost");
                            assert_each_once(&hits, &what);
                            let expect: f64 =
                                (0..len).map(|i| term((t * rounds + round) as u64, i)).sum();
                            assert_eq!(sum.to_bits(), expect.to_bits(), "{what}");
                        }
                        Err(payload) => {
                            let msg = payload
                                .downcast_ref::<String>()
                                .cloned()
                                .unwrap_or_default();
                            assert_eq!(msg, format!("{INJECTED} t{t} r{round}"), "{what}");
                            assert!(
                                hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1),
                                "{what}: an index ran twice"
                            );
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn random_rounds_match_the_sequential_fold() {
    let mut rng = Rng(0x5EED);
    for round in 0..400u64 {
        let len = match rng.below(4) {
            0 => rng.below(8),
            1 => rng.below(200),
            _ => rng.below(6_000),
        };
        let min_len = match rng.below(3) {
            0 => None,
            1 => Some(1 + rng.below(4)),
            _ => Some(1 + rng.below(2_000)),
        };
        let what = format!("round {round} len {len} min_len {min_len:?}");
        let xs: Vec<f64> = (0..len).map(|i| term(round, i)).collect();

        // Shared map + ordered sum, reduce and collect.
        let hits = counters(len);
        let mut par = xs.par_iter();
        if let Some(n) = min_len {
            par = par.with_min_len(n);
        }
        let sum: f64 = par
            .enumerate()
            .map(|(i, x)| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                *x
            })
            .sum();
        assert_each_once(&hits, &what);
        let expect: f64 = xs.iter().sum();
        assert_eq!(sum.to_bits(), expect.to_bits(), "{what}: sum");

        let mut par = xs.par_iter().enumerate();
        if let Some(n) = min_len {
            par = par.with_min_len(n);
        }
        let max = par.map(|(_, x)| x.abs()).reduce(|| 0.0, f64::max);
        let expect = xs.iter().map(|x| x.abs()).fold(0.0, f64::max);
        assert_eq!(max.to_bits(), expect.to_bits(), "{what}: reduce");

        let mut par = xs.par_iter().enumerate();
        if let Some(n) = min_len {
            par = par.with_min_len(n);
        }
        let scaled: Vec<f64> = par.map(|(i, x)| x * i as f64).collect();
        let expect: Vec<f64> = xs.iter().enumerate().map(|(i, x)| x * i as f64).collect();
        assert!(
            scaled
                .iter()
                .zip(&expect)
                .all(|(a, b)| a.to_bits() == b.to_bits())
                && scaled.len() == len,
            "{what}: collect"
        );

        // Exclusive for_each and the lockstep zip.
        let mut a = vec![0.0f64; len];
        let mut b = vec![0u32; len];
        let mut par = a.par_iter_mut().enumerate();
        if let Some(n) = min_len {
            par = par.with_min_len(n);
        }
        par.for_each(|(i, ai)| *ai += xs[i]);
        let mut zip = a.par_iter_mut().zip(b.par_iter_mut()).enumerate();
        if let Some(n) = min_len {
            zip = zip.with_min_len(n);
        }
        zip.for_each(|(i, (ai, bi))| {
            *ai *= 2.0;
            *bi += i as u32 + 1;
        });
        for i in 0..len {
            assert_eq!(a[i].to_bits(), (2.0 * xs[i]).to_bits(), "{what}: a[{i}]");
            assert_eq!(b[i], i as u32 + 1, "{what}: b[{i}]");
        }
    }
}

/// `par_chunks_mut` over random lengths, chunk sizes and `min_len`s: every
/// element lies in exactly one chunk, chunk `c` is the elements from
/// `c · size` on (so the chunk indices run in order along the slice), and
/// only the last chunk is shorter than `size`.
#[test]
fn random_chunked_rounds_visit_each_element_once_in_chunk_order() {
    let mut rng = Rng(0xC40C5);
    for round in 0..400u64 {
        let len = match rng.below(3) {
            0 => rng.below(8),
            1 => rng.below(300),
            _ => rng.below(20_000),
        };
        let size = match rng.below(3) {
            0 => 1 + rng.below(4),
            1 => 1 + rng.below(100),
            _ => 1 + rng.below(3_000),
        };
        let min_len = match rng.below(3) {
            0 => None,
            1 => Some(1 + rng.below(4)),
            _ => Some(1 + rng.below(64)),
        };
        let what = format!("round {round} len {len} size {size} min_len {min_len:?}");
        // Per element: (visits, chunk index, position in the chunk).
        let mut v = vec![(0usize, 0usize, 0usize); len];
        let mut par = v.par_chunks_mut(size);
        if let Some(n) = min_len {
            par = par.with_min_len(n);
        }
        par.enumerate().for_each(|(c, chunk)| {
            let last = c == len.div_ceil(size) - 1;
            assert!(
                chunk.len() == size || (last && chunk.len() < size),
                "chunk {c} of {} elements",
                chunk.len()
            );
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (x.0 + 1, c, j);
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (1, i / size, i % size), "{what}: element {i}");
        }
    }
}
