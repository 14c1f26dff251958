//! A fixed piece of work whose only purpose is to say how fast the machine
//! is right now.
//!
//! On a shared virtual machine the same program runs 10-15% faster or
//! slower from one ten-second window to the next, and everything slows
//! together. A run therefore interleaves this reference with the program:
//! `reference, child, reference, child, …, reference`. The `*_vs_ref`
//! metrics divide the child's times by the reference's, which cancels the
//! drift they share; the plain metrics in seconds are reported beside them.
//!
//! The work is this file's own code and never calls the repository, so no
//! change to the program can speed it up. It is one dependent
//! multiply-add chain per lane over a cache-resident buffer (the flavour of
//! the training kernels) followed by a dependent integer hash chain (the
//! flavour of grouping and membership code), on every child thread at once.

use std::hint::black_box;
use std::time::Instant;

const LANES: usize = 4096;
const FLOAT_PASSES: usize = 120_000;
const HASH_STEPS: usize = 22_000_000;

fn one_thread() -> f64 {
    let mut y: Vec<f32> = (0..LANES).map(|i| 1.0 + i as f32 * 1e-4).collect();
    let x: Vec<f32> = (0..LANES).map(|i| 0.5 + i as f32 * 1e-5).collect();
    for _ in 0..FLOAT_PASSES {
        for (y, x) in y.iter_mut().zip(&x) {
            *y = *y * 0.999_9 + *x;
        }
        black_box(&mut y);
    }
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..HASH_STEPS as u64 {
        h = (h ^ (h >> 30))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    y.iter().map(|&v| f64::from(v)).sum::<f64>() + (black_box(h) & 1) as f64
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The processors this process may run on (at most the first 1024).
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0 is
    // the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
    if !ok {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to one processor. Two fresh threads often start
/// on the same processor and stay there for the whole tenth of a second the
/// work lasts, which would double the reading; a failure to pin is ignored,
/// the reading is then merely noisier.
fn pin_to(cpu: usize) {
    let mut mask = [0u64; 16];
    if cpu < mask.len() * 64 {
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above; the mask names one processor taken from this
        // thread's own allowed set.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

/// Runs the reference work on `threads` threads at once, one per allowed
/// processor (wrapping around), and returns the seconds until the last one
/// finished.
pub fn run(threads: usize) -> f64 {
    let cpus = allowed_cpus();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|i| {
                let cpu = cpus.get(i % cpus.len().max(1)).copied();
                scope.spawn(move || {
                    if let Some(cpu) = cpu {
                        pin_to(cpu);
                    }
                    black_box(one_thread())
                })
            })
            .collect();
        for h in handles {
            h.join().expect("the reference work does not panic");
        }
    });
    start.elapsed().as_secs_f64()
}
