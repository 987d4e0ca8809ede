//! Property suite for the `SAEG` segment codec — the bytes the cluster
//! tier ships between shards, and the only epoch bytes a process reads
//! from outside itself. The contract under test: *any* mangling of a
//! valid encoding (truncation, bit flips, span corruption, version skew,
//! trailing junk, random garbage), any intact encoding asked for under
//! another key, and any segment longer than `SEGMENT_CAP` decodes to a
//! typed error — a clean cache miss — never a panic and never a
//! structurally-valid-but-wrong segment.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use sparseadapt::epoch_cache::{
    decode_segment, encode_segment, DecodeError, EpochKey, SEGMENT_CAP, SEGMENT_VERSION,
};
use transmuter::config::{MachineSpec, TransmuterConfig};
use transmuter::machine::{
    CachedEpoch, CachedSegment, EpochBoundary, EpochHook, EpochRecord, Machine,
};
use transmuter::workload::{Op, Phase, Workload};

/// The key the valid segment starts at.
const KEY: EpochKey = EpochKey {
    spec: 0x5eed_0001,
    workload: 0x5eed_0002,
    config: 0x5eed_0003,
    index: 0,
    entry_digest: 0x5eed_0004,
};

/// An [`EpochHook`] that never hits and keeps every epoch it is handed.
#[derive(Default)]
struct Recorder(Vec<CachedEpoch>);

impl EpochHook for Recorder {
    fn lookup(&mut self, _boundary: &EpochBoundary) -> Option<Arc<CachedEpoch>> {
        None
    }

    fn record(&mut self, _boundary: &EpochBoundary, epoch: CachedEpoch) {
        self.0.push(epoch);
    }
}

/// One real multi-epoch run, encoded as a segment under [`KEY`]: its
/// records and last exit state, every epoch's exit digest, and the
/// bytes. Simulated once; every property mangles copies of the bytes.
struct Valid {
    segment: CachedSegment,
    digests: Vec<u64>,
    bytes: Vec<u8>,
}

fn valid() -> &'static Valid {
    static VALID: OnceLock<Valid> = OnceLock::new();
    VALID.get_or_init(|| {
        let spec = MachineSpec::default().with_epoch_ops(40);
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
        let mut recorder = Recorder::default();
        Machine::new(spec, TransmuterConfig::baseline()).run_with_hook(&wl, &mut recorder);
        let epochs = recorder.0;
        assert!(epochs.len() >= 3, "need a multi-epoch segment");
        let records: Vec<EpochRecord> = epochs.iter().map(|e| e.record.clone()).collect();
        let digests: Vec<u64> = epochs.iter().map(|e| e.exit.digest()).collect();
        let exit = epochs.last().expect("epochs").exit.clone();
        let bytes = encode_segment(&KEY, &records, &digests, &exit);
        Valid {
            segment: CachedSegment { records, exit },
            digests,
            bytes,
        }
    })
}

fn valid_bytes() -> &'static [u8] {
    &valid().bytes
}

#[test]
fn round_trip_is_identity() {
    let v = valid();
    let decoded = decode_segment(&v.bytes, &KEY).expect("valid bytes decode");
    assert_eq!(
        decoded, v.segment,
        "the records and the exit state come back"
    );
    assert_eq!(
        encode_segment(&KEY, &decoded.records, &v.digests, &decoded.exit),
        v.bytes
    );
}

#[test]
fn more_than_segment_cap_records_is_bad_record() {
    let CachedSegment { records, exit } = &valid().segment;
    let at_cap = |n: usize| {
        let records: Vec<EpochRecord> = records.iter().cycle().take(n).cloned().collect();
        encode_segment(&KEY, &records, &vec![exit.digest(); n], exit)
    };
    let full = decode_segment(&at_cap(SEGMENT_CAP), &KEY).expect("a full segment decodes");
    assert_eq!(full.records.len(), SEGMENT_CAP);
    assert_eq!(
        decode_segment(&at_cap(SEGMENT_CAP + 1), &KEY),
        Err(DecodeError::BadRecord)
    );
}

proptest! {
    /// Every strict prefix of a valid encoding is a clean miss.
    #[test]
    fn truncation_is_a_clean_miss(raw_len in 0usize..=1 << 20) {
        let bytes = valid_bytes();
        let len = raw_len % bytes.len();
        prop_assert!(decode_segment(&bytes[..len], &KEY).is_err(), "prefix of {len} decoded");
    }

    /// Flipping any single bit anywhere in a valid encoding is a clean
    /// miss: header fields are validated and the payload is covered by
    /// the checksum, so no flip can surface as a different-but-valid
    /// segment.
    #[test]
    fn single_bit_flip_is_a_clean_miss(raw_pos in 0usize..=1 << 20, bit in 0u8..8) {
        let valid = valid_bytes();
        let pos = raw_pos % valid.len();
        let mut bytes = valid.to_vec();
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_segment(&bytes, &KEY).is_err(),
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
            decode_segment(&bytes, &KEY).is_err(),
            "span [{start}, {end}) corrupted, still decoded"
        );
    }

    /// Any other codec version — older or newer writer — is rejected
    /// with the typed skew error carrying the version it found.
    #[test]
    fn version_skew_is_typed(version in 0u16..=u16::MAX) {
        if version == SEGMENT_VERSION {
            return Ok(());
        }
        let mut bytes = valid_bytes().to_vec();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            decode_segment(&bytes, &KEY),
            Err(DecodeError::VersionSkew { found: version })
        );
    }

    /// Trailing junk after a valid encoding is rejected (the checksum
    /// does not cover it, so this is its own check).
    #[test]
    fn trailing_bytes_are_rejected(junk in prop::collection::vec(0u8..=255, 1..32)) {
        let mut bytes = valid_bytes().to_vec();
        bytes.extend_from_slice(&junk);
        prop_assert!(decode_segment(&bytes, &KEY).is_err());
    }

    /// An intact encoding asked for under any other first key is
    /// rejected with the typed mismatch, whichever key field differs.
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
        prop_assert_eq!(decode_segment(valid_bytes(), &other), Err(DecodeError::KeyMismatch));
    }

    /// Arbitrary byte soup never decodes (and never panics).
    #[test]
    fn random_garbage_is_a_clean_miss(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        prop_assert!(decode_segment(&bytes, &KEY).is_err());
    }
}
