//! Host-speed normalisation.
//!
//! The benchmark was built on a shared 2-vCPU virtual machine whose speed
//! drifts by up to a factor of two over tens of seconds as neighbours
//! come and go; every session runs at whatever speed the host has at that
//! moment. A fixed calibration kernel — benchmark code that no change to
//! the simulator touches — runs after every session ([`kernel_s`]), and
//! each session's wall time is divided by the host's current kernel time
//! (the median of the kernel samples around it) and multiplied by
//! [`NOMINAL_KERNEL_S`]. The
//! result is the session's time on a host that runs the kernel in exactly
//! 1 ms. On that host the ratio of session time to kernel time held within
//! ±4% while both moved by 2×, so the normalised times move with the
//! simulator and not with the neighbours.

use std::time::Instant;

/// Kernel time of the reference host the reported times are scaled to.
pub const NOMINAL_KERNEL_S: f64 = 1e-3;

/// Kernel runs on each side of a session that set its host speed.
const WINDOW: usize = 4;

/// The calibration kernel: branchy integer work over a 1 MiB table, like
/// the simulator's own mix of decode branches and memory traffic.
/// Deterministic; returns a checksum so it cannot be optimised away.
#[must_use]
pub fn kernel() -> u64 {
    let mut v: Vec<u64> = (0..131_072u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mask = v.len() - 1;
    let mut acc = 0u64;
    for round in 0..6usize {
        for i in 0..v.len() {
            // reason: masked to the table size; truncation is the intent.
            #[allow(clippy::cast_possible_truncation)]
            let j = (v[i] as usize ^ round) & mask;
            if v[j] & 1 == 0 {
                acc = acc.wrapping_add(v[j]);
            } else {
                acc ^= v[j] >> 3;
            }
            v[i] = v[i].rotate_left(5) ^ acc;
        }
    }
    acc
}

/// Kernel time after a timed section of `section_s` seconds: the median
/// of as many kernel runs as fit in 2% of the section (at least one, at
/// most 16), so a long session gets a host-speed sample as steady as its
/// own time.
#[must_use]
pub fn kernel_s(section_s: f64) -> f64 {
    let mut runs = Vec::new();
    while runs.is_empty() || (runs.iter().sum::<f64>() < 0.02 * section_s && runs.len() < 16) {
        let t = Instant::now();
        std::hint::black_box(kernel());
        runs.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&runs)
}

/// Normalises `times[i]` by the kernel times `kernels` measured beside
/// them (one per time, in the same order): each time is scaled by
/// `NOMINAL_KERNEL_S` over the median kernel time of its neighbourhood.
#[must_use]
pub fn normalise(times: &[f64], kernels: &[f64]) -> Vec<f64> {
    assert_eq!(times.len(), kernels.len(), "one kernel run per time");
    (0..times.len())
        .map(|i| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + WINDOW + 1).min(kernels.len());
            let local = crate::stats::median(&kernels[lo..hi]);
            times[i] * NOMINAL_KERNEL_S / local.max(1e-12)
        })
        .collect()
}

/// Scale from wall time to normalised time for a whole run.
#[must_use]
pub fn run_scale(kernels: &[f64]) -> f64 {
    let k = crate::stats::median(kernels);
    if k > 0.0 {
        NOMINAL_KERNEL_S / k
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn a_host_twice_as_slow_normalises_to_the_same_time() {
        let fast = normalise(&[10e-3, 10e-3, 10e-3], &[1e-3, 1e-3, 1e-3]);
        let slow = normalise(&[20e-3, 20e-3, 20e-3], &[2e-3, 2e-3, 2e-3]);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-12 && (a - 10e-3).abs() < 1e-12);
        }
    }

    #[test]
    fn one_stalled_kernel_run_does_not_move_its_neighbours() {
        let n = normalise(&[5e-3; 5], &[1e-3, 1e-3, 9e-3, 1e-3, 1e-3]);
        assert!(n.iter().all(|t| (t - 5e-3).abs() < 1e-12), "{n:?}");
    }
}
