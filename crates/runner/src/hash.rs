//! Stable hashing and deterministic seed derivation.
//!
//! Everything the runner keys on — journal fingerprints, configuration
//! identity, fault-injection draws — must be stable across processes,
//! platforms and thread schedules. `std`'s `DefaultHasher` is explicitly
//! not guaranteed stable, so the runner uses FNV-1a over canonical JSON
//! for identity and splitmix64 for derived pseudo-random draws.

use mtm_stormsim::StormConfig;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` — stable across platforms and runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable identity of a configuration: FNV-1a over its canonical JSON
/// serialization (struct field order is fixed, floats print
/// shortest-round-trip, so equal configs hash equal and any field change
/// changes the hash). Serialization of a plain config cannot fail; the
/// zero hash is reserved for that unreachable branch.
pub fn config_hash(config: &StormConfig) -> u64 {
    match serde_json::to_string(config) {
        Ok(json) => fnv1a64(json.as_bytes()),
        Err(_) => 0,
    }
}

/// splitmix64 — the finalizer used for deterministic derived draws
/// (fault-injection decisions, retry run-id salts).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a 64-bit draw to the unit interval `[0, 1)`.
pub fn unit_f64(x: u64) -> f64 {
    // 53 high bits → uniform double, the standard conversion.
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        let a = fnv1a64(b"hello");
        assert_eq!(a, fnv1a64(b"hello"), "same input, same hash");
        assert_ne!(a, fnv1a64(b"hellp"));
        // Pinned value: the well-known FNV-1a test vector for the empty
        // string is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn config_hash_tracks_every_field() {
        let base = StormConfig::baseline(4);
        let h0 = config_hash(&base);
        assert_eq!(h0, config_hash(&base.clone()));

        let mut c = base.clone();
        c.batch_size += 1;
        assert_ne!(h0, config_hash(&c));

        let mut c = base.clone();
        c.parallelism_hints[2] += 1;
        assert_ne!(h0, config_hash(&c));
    }

    #[test]
    fn config_hash_is_pinned() {
        // Journals key trials by these values: a serializer change that
        // moves them silently re-keys every journal on disk.
        assert_eq!(
            config_hash(&StormConfig::baseline(4)),
            0x75ec_00f2_74ce_dd17
        );
        let mut wide = StormConfig::baseline(10_000);
        wide.parallelism_hints = (0..10_000u32).map(|v| 1 + v % 60).collect();
        wide.max_tasks = 20_000;
        assert_eq!(config_hash(&wide), 0x2977_dfa6_6693_6f3d);
    }

    #[test]
    fn unit_draws_are_in_range() {
        for i in 0..1000u64 {
            let u = unit_f64(splitmix64(i));
            assert!((0.0..1.0).contains(&u), "draw {u} out of range");
        }
    }
}
