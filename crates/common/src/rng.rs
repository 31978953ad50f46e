//! The one pseudo-random mixing function shared by every seeded stream.

/// The splitmix64 output mix (Steele, Lea & Flood; the standard
/// `SplitMix64` finalizer): good avalanche from a weak input.
///
/// The fleet derives per-unit seeds from it and the differential fuzzer
/// steps its program-generation stream with it, so a seed chases the same
/// values everywhere.
///
/// ```
/// assert_eq!(audo_common::splitmix64(0), 0xE220_A839_7B1D_CDAF);
/// ```
#[inline]
#[must_use]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
