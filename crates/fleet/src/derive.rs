//! Per-vehicle seed derivation.
//!
//! Every unit in the fleet is identified by its session index; everything
//! else about it — its own seed, the calibration cohort it belongs to,
//! its tool-link fault rate, whether it is the planted miscalibrated
//! unit — is *derived* from the fleet master seed and that index through
//! a splitmix64 stream. Derivation is pure integer math: the same
//! `(fleet seed, index)` pair derives the same vehicle on any host, at
//! any `--jobs`, in any session order, which is what makes a fleet run
//! replayable (and a vetoed unit chaseable by seed alone).

pub use audo_common::splitmix64;

use crate::cohort;

/// Derives an independent value from a vehicle seed: `stream` selects
/// which quantity (cohort, fault jitter, miscalibration draw, …) so the
/// draws do not correlate.
#[must_use]
pub fn derive_stream(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Derivation streams (documented so goldens/chasing tools can recompute
/// any single draw).
pub mod stream {
    /// Cohort selection draw.
    pub const COHORT: u64 = 1;
    /// Tool-link fault-rate jitter draw.
    pub const FAULT: u64 = 2;
    /// Miscalibration draw (`1/N` units hit `draw % N == 0`).
    pub const MISCAL: u64 = 3;
}

/// Everything derived about one vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleSpec {
    /// Session index in the fleet (0-based).
    pub index: u64,
    /// The vehicle's own seed (drives its link-fault injector and every
    /// further per-vehicle draw).
    pub seed: u64,
    /// Calibration cohort ([`crate::cohort::COHORTS`] index). For a
    /// miscalibrated unit this is the cohort the unit *claims* —
    /// the envelope it is checked against.
    pub cohort: usize,
    /// Derived per-unit tool-link fault rate (base rate × jitter in
    /// `[0.5, 1.5)`).
    pub fault_rate: f64,
    /// This unit is the planted miscalibration: it claims the lean
    /// scratchpad-resident calibration but actually runs the flash-heavy
    /// stock build.
    pub miscalibrated: bool,
}

/// The vehicle seed of session `index` under `fleet_seed`.
#[must_use]
pub fn vehicle_seed(fleet_seed: u64, index: u64) -> u64 {
    splitmix64(fleet_seed ^ splitmix64(index))
}

/// Whether the vehicle with `seed` is miscalibrated under a `1/n` plant
/// rate (the draw every chasing tool can recompute).
#[must_use]
pub fn is_miscalibrated(seed: u64, n: u64) -> bool {
    n > 0 && derive_stream(seed, stream::MISCAL).is_multiple_of(n)
}

/// Derives the full spec of session `index`.
///
/// `miscalibrate` is the plant rate as `Some(n)` for "1 in n" (`None`
/// plants nothing). A miscalibrated unit's cohort is forced to the lean
/// calibration cohort — that is the envelope its measured rates are
/// checked against, and the flash-heavy rogue build it actually runs
/// cannot satisfy it.
#[must_use]
pub fn vehicle(
    fleet_seed: u64,
    index: u64,
    base_fault_rate: f64,
    miscalibrate: Option<u64>,
) -> VehicleSpec {
    let seed = vehicle_seed(fleet_seed, index);
    let miscalibrated = miscalibrate.is_some_and(|n| is_miscalibrated(seed, n));
    let cohort = if miscalibrated {
        cohort::LEAN
    } else {
        cohort::pick(derive_stream(seed, stream::COHORT))
    };
    // Jitter in [0.5, 1.5): units near a noisy charger and units on a
    // clean bench link, derived — not sampled — so it replays.
    let jitter = 0.5 + (derive_stream(seed, stream::FAULT) >> 11) as f64 / (1u64 << 53) as f64;
    VehicleSpec {
        index,
        seed,
        cohort,
        fault_rate: (base_fault_rate * jitter).clamp(0.0, 1.0),
        miscalibrated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pure_and_index_sensitive() {
        let a = vehicle(42, 7, 1e-3, Some(100));
        let b = vehicle(42, 7, 1e-3, Some(100));
        assert_eq!(a, b);
        let c = vehicle(42, 8, 1e-3, Some(100));
        assert_ne!(a.seed, c.seed);
        // A different fleet seed reseeds every vehicle.
        let d = vehicle(43, 7, 1e-3, Some(100));
        assert_ne!(a.seed, d.seed);
    }

    #[test]
    fn fault_rate_jitter_stays_in_band() {
        for i in 0..500 {
            let v = vehicle(0xF00D, i, 1e-2, None);
            assert!(v.fault_rate >= 0.5e-2 && v.fault_rate < 1.5e-2, "{v:?}");
            assert!(!v.miscalibrated);
        }
        // Zero base rate derives zero everywhere.
        assert_eq!(vehicle(0xF00D, 3, 0.0, None).fault_rate, 0.0);
    }

    #[test]
    fn miscalibrated_units_claim_the_lean_cohort() {
        // 1/1 plants every unit.
        for i in 0..16 {
            let v = vehicle(1, i, 0.0, Some(1));
            assert!(v.miscalibrated);
            assert_eq!(v.cohort, cohort::LEAN);
        }
        // Plant rate 1/n draws roughly 1/n of units (loose band; the
        // draw is pinned exactly by the fleet determinism suite).
        let planted = (0..4000)
            .filter(|&i| vehicle(2, i, 0.0, Some(16)).miscalibrated)
            .count();
        assert!((100..500).contains(&planted), "{planted}");
    }

    #[test]
    fn cohorts_cover_the_table() {
        let mut seen = vec![0u64; cohort::COHORTS.len()];
        for i in 0..2000 {
            seen[vehicle(3, i, 0.0, None).cohort] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }
}
