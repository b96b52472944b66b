//! Host-speed calibration.
//!
//! The benchmark's host is a guest that shares its processors, caches
//! and memory with other guests. For tens of seconds to minutes at a
//! time the processors run slower (by up to about 1.5×) with no
//! hypervisor steal: process CPU time rises with wall time, and the MPC
//! jobs slow down alike. A seed-to-seed spread or a before/after
//! comparison taken across such a change measures the host, not the
//! program.
//!
//! So the benchmark times a fixed kernel that depends on no code of the
//! repository — on the workload's thread count, chains of dependent
//! random reads through a table four times a core's L2 — right before
//! and right after every timed job. A job's time in *reference
//! seconds* is its wall time × [`REFERENCE_S`] ÷ the mean of the two
//! kernel times beside it. A change to the program moves
//! the job's wall time and not the kernel, so it shows in full; a
//! slower host moves both, and cancels out.
//!
//! Of the kernels tried (pure arithmetic, sorting, streaming reads,
//! fresh page faults, and random reads in and beyond L2), random reads
//! beyond L2 tracked the jobs best. See `perfbench/README.md`.

use crate::stats::median;
use std::time::Instant;

/// Kernel time, s, that a reference second corresponds to: about the
/// kernel's median on a 2-vCPU Sapphire Rapids KVM guest, so that
/// reference seconds read close to wall seconds there.
pub const REFERENCE_S: f64 = 0.008;

/// Kernel calls whose median is one calibration sample.
pub const CALLS: usize = 3;

/// Dependent random reads per thread per kernel call.
const READS: usize = 1 << 15;
/// Table entries: 16 MiB of u64, four times a core's L2.
const TABLE: usize = 1 << 21;

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The calibration kernel and its fixed input.
pub struct Calibrator {
    table: Vec<u64>,
    threads: usize,
}

impl Calibrator {
    /// Builds the kernel's table, the same on every run.
    pub fn new(threads: usize) -> Calibrator {
        Calibrator {
            table: (0..TABLE as u64).map(splitmix).collect(),
            threads: threads.max(1),
        }
    }

    /// One kernel call: every thread follows a chain of [`READS`]
    /// random table entries, each address depending on the value read
    /// before. Returns a checksum so the work cannot be optimised away.
    fn call(&self) -> u64 {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.threads as u64)
                .map(|t| {
                    let table = &self.table;
                    s.spawn(move || {
                        let mut at = splitmix(t);
                        let mut acc = 0u64;
                        for _ in 0..READS {
                            let v = table[(at % TABLE as u64) as usize];
                            acc = acc.wrapping_add(v);
                            at = splitmix(at ^ v);
                        }
                        acc
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("a calibration thread panicked"))
                .fold(0, |a, b| a ^ b)
        })
    }

    /// One calibration sample: the median wall time of [`CALLS`] kernel
    /// calls, s. An untimed call goes first. Every call follows the same
    /// chains, so after it the caches and TLBs hold the same state
    /// whatever ran before the sample; without it the kernel read 20–30 %
    /// slower after a job with a large memory footprint than after a
    /// small one, which would have tied the calibration to the program it
    /// calibrates.
    pub fn sample(&self) -> f64 {
        std::hint::black_box(self.call());
        let times: Vec<f64> = (0..CALLS)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(self.call());
                start.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    }
}

/// `wall_s` in reference seconds, given the calibration sample taken
/// beside it.
pub fn to_reference(wall_s: f64, calibration_s: f64) -> f64 {
    wall_s * REFERENCE_S / calibration_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_scales_out() {
        let one = Calibrator::new(1);
        assert_eq!(one.call(), one.call());
        assert!(one.sample() > 0.0);
        assert_ne!(Calibrator::new(2).call(), one.call());
    }

    #[test]
    fn a_slower_host_cancels_out() {
        // The same job on a host half as fast, calibrated beside it.
        let fast = to_reference(1.0, 0.007);
        let slow = to_reference(2.0, 0.014);
        assert!((fast - slow).abs() < 1e-12);
        assert!((to_reference(1.0, REFERENCE_S) - 1.0).abs() < 1e-12);
    }
}
