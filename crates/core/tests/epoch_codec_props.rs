//! Property suite for the `SAEP` epoch codec — the bytes the disk tier
//! stores and the cluster tier ships between shards. The contract under
//! test: *any* mangling of a valid encoding (truncation, bit flips,
//! span corruption, version skew, trailing junk, random garbage), and
//! any intact encoding asked for under another key, decodes to a typed
//! error — a clean cache miss — never a panic and never a
//! structurally-valid-but-wrong epoch.

use std::sync::OnceLock;

use proptest::prelude::*;
use sparseadapt::epoch_cache::{decode_epoch, encode_epoch, DecodeError, EpochKey, EPOCH_VERSION};
use transmuter::config::{MachineSpec, TransmuterConfig};
use transmuter::machine::{CachedEpoch, Machine};
use transmuter::workload::{Op, Phase, Workload};

/// The key the valid bytes are stored under.
const KEY: EpochKey = EpochKey {
    spec: 0x5eed_0001,
    workload: 0x5eed_0002,
    config: 0x5eed_0003,
    index: 0,
    entry_digest: 0x5eed_0004,
};

/// One real epoch (record + exit snapshot) from a tiny run, encoded
/// under [`KEY`]. Simulated once; every property mangles copies of
/// these bytes.
fn valid_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let spec = MachineSpec::default().with_epoch_ops(120);
        let streams: Vec<Vec<Op>> = (0..16)
            .map(|g| {
                (0..80u64)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: g as u64 * 8192 + i * 40,
                                pc: 1,
                            },
                            Op::Flops(1),
                        ]
                    })
                    .collect()
            })
            .collect();
        let wl = Workload::new("codec-props", vec![Phase::new("p", streams)]);
        let mut machine = Machine::new(spec, TransmuterConfig::baseline());
        let run = machine.run(&wl);
        let epoch = CachedEpoch {
            record: run.epochs[0].clone(),
            exit: machine.snapshot(),
        };
        encode_epoch(&KEY, &epoch)
    })
}

#[test]
fn round_trip_is_identity() {
    let bytes = valid_bytes();
    let decoded = decode_epoch(bytes, &KEY).expect("valid bytes decode");
    assert_eq!(encode_epoch(&KEY, &decoded), bytes);
}

proptest! {
    /// Every strict prefix of a valid encoding is a clean miss.
    #[test]
    fn truncation_is_a_clean_miss(raw_len in 0usize..=1 << 20) {
        let bytes = valid_bytes();
        let len = raw_len % bytes.len();
        prop_assert!(decode_epoch(&bytes[..len], &KEY).is_err(), "prefix of {len} decoded");
    }

    /// Flipping any single bit anywhere in a valid encoding is a clean
    /// miss: header fields are validated and the payload is covered by
    /// the checksum, so no flip can surface as a different-but-valid
    /// epoch.
    #[test]
    fn single_bit_flip_is_a_clean_miss(raw_pos in 0usize..=1 << 20, bit in 0u8..8) {
        let valid = valid_bytes();
        let pos = raw_pos % valid.len();
        let mut bytes = valid.to_vec();
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_epoch(&bytes, &KEY).is_err(),
            "bit {bit} of byte {pos} flipped, still decoded"
        );
    }

    /// Overwriting a random span with arbitrary bytes is a clean miss
    /// (unless the junk happens to equal what it replaced).
    #[test]
    fn span_corruption_is_a_clean_miss(
        raw_start in 0usize..=1 << 20,
        junk in prop::collection::vec(0u8..=255, 1..64),
    ) {
        let valid = valid_bytes();
        let start = raw_start % valid.len();
        let end = (start + junk.len()).min(valid.len());
        let mut bytes = valid.to_vec();
        bytes[start..end].copy_from_slice(&junk[..end - start]);
        if bytes == valid {
            return Ok(()); // junk happened to match; nothing corrupted
        }
        prop_assert!(
            decode_epoch(&bytes, &KEY).is_err(),
            "span [{start}, {end}) corrupted, still decoded"
        );
    }

    /// Any other codec version — older or newer writer — is rejected
    /// with the typed skew error carrying the version it found.
    #[test]
    fn version_skew_is_typed(version in 0u16..=u16::MAX) {
        if version == EPOCH_VERSION {
            return Ok(());
        }
        let mut bytes = valid_bytes().to_vec();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            decode_epoch(&bytes, &KEY),
            Err(DecodeError::VersionSkew { found: version })
        );
    }

    /// Trailing junk after a valid encoding is rejected (the checksum
    /// does not cover it, so this is its own check).
    #[test]
    fn trailing_bytes_are_rejected(junk in prop::collection::vec(0u8..=255, 1..32)) {
        let mut bytes = valid_bytes().to_vec();
        bytes.extend_from_slice(&junk);
        prop_assert!(decode_epoch(&bytes, &KEY).is_err());
    }

    /// An intact encoding asked for under any other key is rejected
    /// with the typed mismatch, whichever key field differs.
    #[test]
    fn another_key_is_a_typed_miss(field in 0usize..5, delta in 1u64..=u64::MAX) {
        let mut other = KEY;
        let slot = match field {
            0 => &mut other.spec,
            1 => &mut other.workload,
            2 => &mut other.config,
            3 => &mut other.index,
            _ => &mut other.entry_digest,
        };
        *slot = slot.wrapping_add(delta);
        prop_assert_eq!(decode_epoch(valid_bytes(), &other), Err(DecodeError::KeyMismatch));
    }

    /// Arbitrary byte soup never decodes (and never panics).
    #[test]
    fn random_garbage_is_a_clean_miss(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        prop_assert!(decode_epoch(&bytes, &KEY).is_err());
    }
}
