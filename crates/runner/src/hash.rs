//! Stable hashing and deterministic seed derivation.
//!
//! Everything the runner keys on — journal fingerprints, configuration
//! identity, fault-injection draws — must be stable across processes,
//! platforms and thread schedules. `std`'s `DefaultHasher` is explicitly
//! not guaranteed stable, so the runner uses FNV-1a over canonical JSON
//! for identity and splitmix64 for derived pseudo-random draws. The
//! configuration hash streams the canonical JSON bytes straight into
//! FNV-1a instead of building the JSON string first: at 10k hints the
//! string build cost more than the simulation it keys.

use mtm_stormsim::StormConfig;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` — stable across platforms and runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a_feed(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash in state `h` over `bytes`.
fn fnv1a_feed(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Continue an FNV-1a hash in state `h` over the decimal digits of `n`,
/// exactly as JSON writes an unsigned integer.
fn fnv1a_feed_u32(h: u64, mut n: u32) -> u64 {
    // u32::MAX has 10 digits; they are written from the back.
    let mut buf = [0u8; 10];
    let mut start = buf.len();
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        start -= 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    fnv1a_feed(h, buf.get(start..).unwrap_or_default())
}

/// Stable identity of a configuration: FNV-1a over its canonical compact
/// JSON serialization (`serde_json::to_string`: fields in declaration
/// order, integers in decimal), so equal configs hash equal and any field
/// change changes the hash. The bytes are fed to the hash as they would
/// be written, without building the string; the struct is destructured
/// so a new field does not compile until it is hashed here too.
// mtm-hot: config-hash
pub fn config_hash(config: &StormConfig) -> u64 {
    let StormConfig {
        worker_threads,
        receiver_threads,
        ackers,
        batch_parallelism,
        batch_size,
        parallelism_hints,
        max_tasks,
    } = config;
    let mut h = fnv1a_feed(FNV_OFFSET, b"{\"worker_threads\":");
    h = fnv1a_feed_u32(h, *worker_threads);
    h = fnv1a_feed(h, b",\"receiver_threads\":");
    h = fnv1a_feed_u32(h, *receiver_threads);
    h = fnv1a_feed(h, b",\"ackers\":");
    h = fnv1a_feed_u32(h, *ackers);
    h = fnv1a_feed(h, b",\"batch_parallelism\":");
    h = fnv1a_feed_u32(h, *batch_parallelism);
    h = fnv1a_feed(h, b",\"batch_size\":");
    h = fnv1a_feed_u32(h, *batch_size);
    h = fnv1a_feed(h, b",\"parallelism_hints\":[");
    let mut hints = parallelism_hints.iter();
    if let Some(&first) = hints.next() {
        h = fnv1a_feed_u32(h, first);
        for &hint in hints {
            h = fnv1a_feed_u32(fnv1a_feed(h, b","), hint);
        }
    }
    h = fnv1a_feed(h, b"],\"max_tasks\":");
    h = fnv1a_feed_u32(h, *max_tasks);
    fnv1a_feed(h, b"}")
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

    /// The hash as it was computed before it streamed: FNV-1a over the
    /// serialized JSON string.
    fn config_hash_via_json(c: &StormConfig) -> u64 {
        fnv1a64(serde_json::to_string(c).unwrap().as_bytes())
    }

    #[test]
    fn streamed_config_hash_is_bit_equal_to_the_json_hash() {
        let mut configs = vec![StormConfig::baseline(4), StormConfig::baseline(0)];
        for v in [0, u32::MAX] {
            configs.push(StormConfig {
                worker_threads: v,
                receiver_threads: v,
                ackers: v,
                batch_parallelism: v,
                batch_size: v,
                parallelism_hints: vec![v; 3],
                max_tasks: v,
            });
        }
        // One hint of every decimal length, 1 through 10 digits, each
        // at the edges of its length.
        let mut digits = StormConfig::baseline(0);
        let mut p = 1u64;
        for _ in 0..10 {
            digits.parallelism_hints.push(p as u32);
            digits
                .parallelism_hints
                .push((p * 10 - 1).min(u32::MAX as u64) as u32);
            p *= 10;
        }
        configs.push(digits);
        let mut wide = StormConfig::baseline(10_000);
        wide.parallelism_hints = (0..10_000u32).map(|v| 1 + v % 60).collect();
        wide.max_tasks = 20_000;
        configs.push(wide);
        for c in &configs {
            assert_eq!(
                config_hash(c),
                config_hash_via_json(c),
                "{}",
                serde_json::to_string(c).unwrap()
            );
        }
    }

    #[test]
    fn unit_draws_are_in_range() {
        for i in 0..1000u64 {
            let u = unit_f64(splitmix64(i));
            assert!((0.0..1.0).contains(&u), "draw {u} out of range");
        }
    }
}
