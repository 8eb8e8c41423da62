//! The two digests the serving layer keys records by.
//!
//! * **XXH64** ([`xxh64`], the published xxHash 64-bit algorithm) keys
//!   prediction-pair redelivery: [`pair_digest`] is
//!   `xxh64(new, seed = xxh64(old, 0))` over the two canonical wire
//!   strings, so each vector is hashed where it lies. Four independent
//!   lanes consume 32 bytes per stripe, which keeps the commit path at
//!   memory speed on 5 KiB vectors.
//! * **FNV-1a 64** ([`Fnv1a`]) is byte-serial (one dependent multiply per
//!   byte). It digests a testset once per registration or era, and that
//!   digest is anchored on disk (`project.json`, era blobs, the
//!   `fresh_testset` op). It also recomputes the prediction-pair key of
//!   snapshots written before XXH64 ([`fnv1a_pair_digest`]), only when a
//!   redelivery meets such a key.

const PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;

/// The little-endian word at the start of `bytes`.
fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

/// One lane step: fold the word `input` into accumulator `acc`.
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

/// Fold lane accumulator `lane` into the converged hash.
fn merge_round(hash: u64, lane: u64) -> u64 {
    (hash ^ round(0, lane))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// XXH64 of `bytes` under `seed`.
#[must_use]
pub(crate) fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut hash = if bytes.len() >= 32 {
        let mut lanes = [
            seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2),
            seed.wrapping_add(PRIME64_2),
            seed,
            seed.wrapping_sub(PRIME64_1),
        ];
        for stripe in stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, read_u64(word));
            }
        }
        let [a, b, c, d] = lanes;
        let hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.into_iter().fold(hash, merge_round)
    } else {
        seed.wrapping_add(PRIME64_5)
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let mut words = tail.chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ round(0, read_u64(word)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().expect("four bytes"));
        hash = (hash ^ u64::from(half).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &byte in rest {
        hash = (hash ^ u64::from(byte).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME64_3);
    hash ^ (hash >> 32)
}

/// The redelivery key of a prediction pair:
/// `xxh64(new, seed = xxh64(old, 0))` over the two canonical wire
/// strings.
#[must_use]
pub(crate) fn pair_digest(old: &str, new: &str) -> u64 {
    #[cfg(test)]
    tests::PAIR_DIGESTS.with(|count| count.set(count.get() + 1));
    xxh64(new.as_bytes(), xxh64(old.as_bytes(), 0))
}

/// FNV-1a 64, fed a slice at a time.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    /// The state before any byte (the offset basis).
    pub(crate) fn new() -> Fnv1a {
        #[cfg(test)]
        tests::FNV_DIGESTS.with(|count| count.set(count.get() + 1));
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` in, one byte at a time.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of every byte written.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// The prediction-pair key of snapshots written before [`pair_digest`]:
/// FNV-1a 64 over `old | "|" | new`.
#[must_use]
pub(crate) fn fnv1a_pair_digest(old: &str, new: &str) -> u64 {
    let mut fnv = Fnv1a::new();
    for part in [old.as_bytes(), b"|", new.as_bytes()] {
        fnv.write(part);
    }
    fnv.finish()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Prediction-pair digests ([`pair_digest`]) on this thread.
        pub(crate) static PAIR_DIGESTS: Cell<u64> = const { Cell::new(0) };
        /// FNV-1a digests begun ([`Fnv1a::new`]) on this thread.
        pub(crate) static FNV_DIGESTS: Cell<u64> = const { Cell::new(0) };
    }

    /// The published XXH64 test vectors (seed 0). The 39-byte sentence
    /// runs the 32-byte stripe loop, then the word and byte tails.
    #[test]
    fn xxh64_matches_the_published_vectors() {
        for (text, want) in [
            ("", 0xef46_db37_51d8_e999),
            ("a", 0xd24e_c4f1_a98c_6e5b),
            ("abc", 0x44bc_2cf5_ad77_0999),
            (
                "Nobody inspects the spammish repetition",
                0xfbce_a83c_8a37_8bf1,
            ),
        ] {
            assert_eq!(xxh64(text.as_bytes(), 0), want, "{text:?}");
        }
    }

    /// Every tail length after zero, one and two stripes changes the
    /// digest, as does the seed: no byte is dropped.
    #[test]
    fn xxh64_reads_every_byte_and_the_seed() {
        let bytes: Vec<u8> = (0..96u8).collect();
        for len in 0..bytes.len() {
            let digest = xxh64(&bytes[..len], 0);
            assert_ne!(digest, xxh64(&bytes[..=len], 0), "len {len}");
            assert_ne!(digest, xxh64(&bytes[..len], 1), "len {len}");
            if len > 0 {
                let mut flipped = bytes[..len].to_vec();
                flipped[len - 1] ^= 1;
                assert_ne!(digest, xxh64(&flipped, 0), "len {len}");
            }
        }
    }

    /// The FNV-1a pair key is the byte-serial digest of
    /// `old | "|" | new` (the `pred_digest` of older snapshots); FNV-1a
    /// of `"a"` is the published `af63dc4c8601ec8c`.
    #[test]
    fn fnv1a_pair_digest_folds_the_joined_pair() {
        let mut fnv = Fnv1a::new();
        fnv.write(b"a");
        assert_eq!(fnv.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_pair_digest("", ""), 0xaf63_f14c_8602_103b);
        let mut fnv = Fnv1a::new();
        fnv.write(b"#01|#23");
        assert_eq!(fnv1a_pair_digest("#01", "#23"), fnv.finish());
    }
}
