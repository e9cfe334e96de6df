//! Stable hashing and deterministic seed derivation.
//!
//! Everything the runner keys on — journal fingerprints, configuration
//! identity, fault-injection draws — must be stable across processes,
//! platforms and thread schedules. `std`'s `DefaultHasher` is explicitly
//! not guaranteed stable, so the runner uses its own: FNV-1a over
//! canonical JSON for the experiment fingerprint (and serve's store
//! shards), splitmix64 for derived pseudo-random draws, and a word-wise
//! key over a configuration's integer values for trial identity. The
//! trial key is computed on every measured step, where at 10k hints
//! hashing the JSON digits byte by byte cost half the simulation it
//! keyed.

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

/// Two u32 values as one word, `lo` in the low half. Defined on the
/// values, not on their bytes, so the key does not depend on endianness.
fn pack(lo: u32, hi: u32) -> u64 {
    lo as u64 | (hi as u64) << 32
}

/// One lane step: xor the word in, multiply by an odd constant, rotate.
/// For a fixed state it is a bijection of the word and for a fixed word
/// a bijection of the state, so a lane whose words differ in one place
/// ends different.
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
}

/// Stable identity of a configuration, the key of every journaled trial.
/// The six scalar fields (packed in pairs) and the hint count, each
/// spread by splitmix64, start four multiply-rotate lanes; the hints,
/// packed two per word, feed the lanes in turn, so the four multiplies
/// overlap; splitmix64 folds the lanes together. A change to one scalar
/// or one hint always changes the key. The struct is destructured so a
/// new field does not compile until it is keyed here.
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
    let mut lanes = [
        pack(*worker_threads, *receiver_threads),
        pack(*ackers, *batch_parallelism),
        pack(*batch_size, *max_tasks),
        parallelism_hints.len() as u64,
    ]
    .map(splitmix64);
    let (octets, rest) = parallelism_hints.as_chunks::<8>();
    for &[a, b, c, d, e, f, g, h] in octets {
        let words = [pack(a, b), pack(c, d), pack(e, f), pack(g, h)];
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = lane_step(*lane, word);
        }
    }
    // The last 0–7 hints, packed as above; a missing high half reads 0,
    // which the hint count tells apart from a real 0.
    for (lane, pair) in lanes.iter_mut().zip(rest.chunks(2)) {
        let word = pair.iter().rev().fold(0, |w, &x| w << 32 | x as u64);
        *lane = lane_step(*lane, word);
    }
    lanes.into_iter().fold(0, |h, lane| splitmix64(h ^ lane))
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
    use std::collections::BTreeSet;

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

    /// The 10k-hint configuration the pins and the sensitivity test use.
    fn wide() -> StormConfig {
        let mut wide = StormConfig::baseline(10_000);
        wide.parallelism_hints = (0..10_000u32).map(|v| 1 + v % 60).collect();
        wide.max_tasks = 20_000;
        wide
    }

    #[test]
    fn config_hash_is_pinned() {
        // Journals (schema 3) key trials by these values: a key change
        // that moves them re-keys every journal on disk, and must bump
        // `journal::SCHEMA_VERSION` with them.
        assert_eq!(
            config_hash(&StormConfig::baseline(4)),
            0x4835_a9c4_2dcb_f292
        );
        assert_eq!(config_hash(&wide()), 0x4157_a70d_225b_a4cc);
    }

    #[test]
    fn config_hash_separates_near_configs() {
        let base = wide();
        let h0 = config_hash(&base);
        // Every single-hint +1 gives its own key, none the base's.
        let mut c = base.clone();
        let mut keys = BTreeSet::from([h0]);
        for i in 0..c.parallelism_hints.len() {
            c.parallelism_hints[i] += 1;
            assert!(keys.insert(config_hash(&c)), "hint {i} +1 collides");
            c.parallelism_hints[i] -= 1;
        }
        // Swapping two unequal neighbours, inside a packed word and
        // across words, lanes and 8-hint blocks.
        for i in [0, 1, 6, 7, 4997, 9998] {
            let mut c = base.clone();
            assert_ne!(c.parallelism_hints[i], c.parallelism_hints[i + 1]);
            c.parallelism_hints.swap(i, i + 1);
            assert_ne!(config_hash(&c), h0, "swap {i}, {}", i + 1);
        }
        // Moving a value from one scalar field to another.
        let mut c = base.clone();
        c.worker_threads = base.receiver_threads;
        c.receiver_threads = base.worker_threads;
        assert_ne!(c.worker_threads, base.worker_threads);
        assert_ne!(config_hash(&c), h0);
        let mut c = base.clone();
        (c.batch_size, c.max_tasks) = (c.max_tasks, c.batch_size);
        assert_ne!(config_hash(&c), h0);
        // A trailing zero hint is a different configuration.
        let short = StormConfig {
            parallelism_hints: vec![1, 2],
            ..StormConfig::baseline(0)
        };
        let long = StormConfig {
            parallelism_hints: vec![1, 2, 0],
            ..short.clone()
        };
        assert_ne!(config_hash(&short), config_hash(&long));
        // Hint counts 0 to 17 end in every lane remainder (0–7 hints past
        // an 8-hint block); each count, and each +1 on its last hint,
        // gives its own key.
        let mut keys = BTreeSet::new();
        for n in 0..=17u32 {
            let mut c = StormConfig {
                parallelism_hints: (1..=n).collect(),
                ..StormConfig::baseline(0)
            };
            assert!(keys.insert(config_hash(&c)), "{n} hints");
            if let Some(last) = c.parallelism_hints.last_mut() {
                *last += 1;
                assert!(keys.insert(config_hash(&c)), "{n} hints, last +1");
            }
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
