//! Compact binary format for simulation traces: the trace cache's disk
//! files and the bytes a cluster peer answers a trace fetch with.
//!
//! The JSON trace files the disk cache originally wrote spend ~900 bytes
//! per epoch on field names and decimal float rendering. This format
//! stores the same [`EpochRecord`] content in a fixed 213-byte
//! little-endian record (~4× smaller than JSON even before considering
//! parse time), with floats carried as IEEE-754 bit patterns so a
//! round-trip is exact.
//!
//! # Wire layout
//!
//! Header (48 bytes):
//!
//! | offset | size | field                                      |
//! |--------|------|--------------------------------------------|
//! | 0      | 4    | magic `b"SATR"`                            |
//! | 4      | 2    | format version (LE, currently 2)           |
//! | 6      | 2    | flags (LE, must be 0)                      |
//! | 8      | 8    | record count (LE)                          |
//! | 16     | 24   | the [`TraceKey`]: spec, workload, config (LE) |
//! | 40     | 8    | FNV-1a 64 checksum of the records (LE)     |
//!
//! Then `count` records of [`RECORD_BYTES`] bytes each: epoch index,
//! configuration (tag bytes + capacities), metrics, fp-ops, the 18
//! telemetry features in [`TELEMETRY_FEATURES`] order, and the
//! reconfiguration costs — every multi-byte value little-endian, every
//! float as `f64::to_bits`.
//!
//! # Versioning rules
//!
//! The version is bumped whenever the layout changes (field
//! added/removed/reordered or a tag encoding changes). Decoders reject
//! versions they do not know ([`DecodeError::UnsupportedVersion`]) and
//! the cache falls back to re-simulation; old files are never silently
//! misread. Version 2 added the key and the checksum. The `flags` field
//! is reserved and must be zero.
//!
//! Decoding is total: corrupted, truncated, or oversized input produces
//! a [`DecodeError`], never a panic or an attacker-sized allocation.
//! Decoding is also addressed: [`decode_trace`] takes the key the caller
//! wants, so bytes stored or sent under another key's name, or whose
//! records changed after encoding, read as a miss.
//!
//! [`TELEMETRY_FEATURES`]: transmuter::counters::TELEMETRY_FEATURES

use transmuter::config::{ClockFreq, MemKind, SharingMode, TransmuterConfig};
use transmuter::counters::Telemetry;
use transmuter::machine::EpochRecord;
use transmuter::metrics::Metrics;

use crate::trace_cache::TraceKey;

/// File magic: "SparseAdapt TRace".
pub const MAGIC: [u8; 4] = *b"SATR";
/// Current format version.
pub const VERSION: u16 = 2;
/// Header size in bytes.
pub const HEADER_BYTES: usize = 48;
/// Fixed size of one encoded [`EpochRecord`].
pub const RECORD_BYTES: usize = 213;

/// Why a byte buffer failed to decode as a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the header or the declared records did.
    Truncated {
        /// Bytes the declared content needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The file's version is not one this decoder knows.
    UnsupportedVersion(u16),
    /// Reserved flag bits were set.
    BadFlags(u16),
    /// Bytes remain after the declared record count.
    TrailingBytes(usize),
    /// The bytes are intact but hold the trace of another key.
    KeyMismatch,
    /// The records do not match their checksum (bit rot, a torn write).
    ChecksumMismatch,
    /// An enum tag byte holds an undefined value.
    BadEnum {
        /// Which field failed.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, got } => {
                write!(f, "truncated trace: needed {needed} bytes, got {got}")
            }
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::BadFlags(fl) => write!(f, "reserved flag bits set: {fl:#06x}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after records"),
            DecodeError::KeyMismatch => write!(f, "trace of another key"),
            DecodeError::ChecksumMismatch => write!(f, "trace records fail their checksum"),
            DecodeError::BadEnum { field, value } => {
                write!(f, "invalid tag {value} for {field}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes the trace of `key` into the binary format.
pub fn encode_trace(key: &TraceKey, trace: &[EpochRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + trace.len() * RECORD_BYTES);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for field in [key.spec, key.workload, key.config] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    out.extend_from_slice(&[0; 8]); // checksum, filled in below
    for rec in trace {
        encode_record(rec, &mut out);
    }
    debug_assert_eq!(out.len(), HEADER_BYTES + trace.len() * RECORD_BYTES);
    let checksum = fnv1a64(&out[HEADER_BYTES..]);
    out[HEADER_BYTES - 8..HEADER_BYTES].copy_from_slice(&checksum.to_le_bytes());
    out
}

fn encode_record(rec: &EpochRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&(rec.index as u64).to_le_bytes());
    let c = &rec.config;
    out.push(match c.l1_kind {
        MemKind::Cache => 0,
        MemKind::Spm => 1,
    });
    out.push(sharing_code(c.l1_sharing));
    out.push(sharing_code(c.l2_sharing));
    out.push(c.clock.index() as u8);
    out.push(c.prefetch_degree);
    out.extend_from_slice(&c.l1_capacity_kb.to_le_bytes());
    out.extend_from_slice(&c.l2_capacity_kb.to_le_bytes());
    out.extend_from_slice(&rec.metrics.time_s.to_bits().to_le_bytes());
    out.extend_from_slice(&rec.metrics.energy_j.to_bits().to_le_bytes());
    out.extend_from_slice(&rec.metrics.flops.to_le_bytes());
    out.extend_from_slice(&rec.fp_ops.to_le_bytes());
    for v in telemetry_fields(&rec.telemetry) {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&rec.reconfig_time_s.to_bits().to_le_bytes());
    out.extend_from_slice(&rec.reconfig_energy_j.to_bits().to_le_bytes());
}

/// Decodes a binary trace buffer holding the trace of `key`.
///
/// # Errors
///
/// A typed [`DecodeError`] on any malformed, truncated, version-skewed
/// or checksum-failing input, and [`DecodeError::KeyMismatch`] for the
/// intact trace of another key. Callers read every error as a miss.
pub fn decode_trace(bytes: &[u8], key: &TraceKey) -> Result<Vec<EpochRecord>, DecodeError> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    if bytes.len() < HEADER_BYTES {
        return Err(DecodeError::Truncated {
            needed: HEADER_BYTES,
            got: bytes.len(),
        });
    }
    if bytes[0..4] != MAGIC {
        return Err(DecodeError::BadMagic([
            bytes[0], bytes[1], bytes[2], bytes[3],
        ]));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
    if flags != 0 {
        return Err(DecodeError::BadFlags(flags));
    }
    let count = word(8);
    // Exact-length validation up front: a corrupt count can neither
    // trigger a huge preallocation nor read out of bounds.
    let needed = (count as usize)
        .checked_mul(RECORD_BYTES)
        .and_then(|n| n.checked_add(HEADER_BYTES))
        .ok_or(DecodeError::Truncated {
            needed: usize::MAX,
            got: bytes.len(),
        })?;
    if bytes.len() < needed {
        return Err(DecodeError::Truncated {
            needed,
            got: bytes.len(),
        });
    }
    if bytes.len() > needed {
        return Err(DecodeError::TrailingBytes(bytes.len() - needed));
    }
    if [word(16), word(24), word(32)] != [key.spec, key.workload, key.config] {
        return Err(DecodeError::KeyMismatch);
    }
    let records = &bytes[HEADER_BYTES..];
    if fnv1a64(records) != word(40) {
        return Err(DecodeError::ChecksumMismatch);
    }
    records
        .chunks_exact(RECORD_BYTES)
        .map(decode_record)
        .collect()
}

/// FNV-1a 64 over `bytes`: the records' checksum. Not cryptographic; it
/// turns bit rot and torn writes into clean misses.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn decode_record(b: &[u8]) -> Result<EpochRecord, DecodeError> {
    let mut r = Reader { b, pos: 0 };
    let index = r.u64() as usize;
    let l1_kind = match r.u8() {
        0 => MemKind::Cache,
        1 => MemKind::Spm,
        v => {
            return Err(DecodeError::BadEnum {
                field: "l1_kind",
                value: v,
            })
        }
    };
    let l1_sharing = decode_sharing(r.u8(), "l1_sharing")?;
    let l2_sharing = decode_sharing(r.u8(), "l2_sharing")?;
    let clock = match r.u8() {
        v if (v as usize) < ClockFreq::ALL.len() => ClockFreq::ALL[v as usize],
        v => {
            return Err(DecodeError::BadEnum {
                field: "clock",
                value: v,
            })
        }
    };
    let prefetch_degree = r.u8();
    let l1_capacity_kb = r.u32();
    let l2_capacity_kb = r.u32();
    let config = TransmuterConfig {
        l1_kind,
        l1_sharing,
        l2_sharing,
        l1_capacity_kb,
        l2_capacity_kb,
        clock,
        prefetch_degree,
    };
    let time_s = r.f64();
    let energy_j = r.f64();
    let flops = r.u64();
    let metrics = Metrics::new(time_s, energy_j, flops);
    let fp_ops = r.u64();
    let telemetry = Telemetry {
        l1_access_throughput: r.f64(),
        l1_occupancy: r.f64(),
        l1_miss_rate: r.f64(),
        l1_prefetch_per_access: r.f64(),
        l1_capacity_kb: r.f64(),
        l2_access_throughput: r.f64(),
        l2_occupancy: r.f64(),
        l2_miss_rate: r.f64(),
        l2_prefetch_per_access: r.f64(),
        l2_capacity_kb: r.f64(),
        l1_xbar_contention_ratio: r.f64(),
        l2_xbar_contention_ratio: r.f64(),
        gpe_fp_ipc: r.f64(),
        gpe_ipc: r.f64(),
        lcp_ipc: r.f64(),
        clock_mhz: r.f64(),
        mem_read_util: r.f64(),
        mem_write_util: r.f64(),
    };
    let reconfig_time_s = r.f64();
    let reconfig_energy_j = r.f64();
    debug_assert_eq!(r.pos, RECORD_BYTES);
    Ok(EpochRecord {
        index,
        config,
        metrics,
        fp_ops,
        telemetry,
        reconfig_time_s,
        reconfig_energy_j,
    })
}

fn sharing_code(s: SharingMode) -> u8 {
    match s {
        SharingMode::Shared => 0,
        SharingMode::Private => 1,
    }
}

fn decode_sharing(v: u8, field: &'static str) -> Result<SharingMode, DecodeError> {
    match v {
        0 => Ok(SharingMode::Shared),
        1 => Ok(SharingMode::Private),
        _ => Err(DecodeError::BadEnum { field, value: v }),
    }
}

/// The 18 telemetry features in [`TELEMETRY_FEATURES`] order.
///
/// [`TELEMETRY_FEATURES`]: transmuter::counters::TELEMETRY_FEATURES
fn telemetry_fields(t: &Telemetry) -> [f64; 18] {
    [
        t.l1_access_throughput,
        t.l1_occupancy,
        t.l1_miss_rate,
        t.l1_prefetch_per_access,
        t.l1_capacity_kb,
        t.l2_access_throughput,
        t.l2_occupancy,
        t.l2_miss_rate,
        t.l2_prefetch_per_access,
        t.l2_capacity_kb,
        t.l1_xbar_contention_ratio,
        t.l2_xbar_contention_ratio,
        t.gpe_fp_ipc,
        t.gpe_ipc,
        t.lcp_ipc,
        t.clock_mhz,
        t.mem_read_util,
        t.mem_write_util,
    ]
}

/// Bounds-checked little-endian reader over one record slice. All
/// callers pass exactly [`RECORD_BYTES`], validated by the caller, so
/// the indexing below cannot fail.
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> u8 {
        let v = self.b[self.pos];
        self.pos += 1;
        v
    }

    fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.b[self.pos..self.pos + 4].try_into().expect("4 bytes"));
        self.pos += 4;
        v
    }

    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.b[self.pos..self.pos + 8].try_into().expect("8 bytes"));
        self.pos += 8;
        v
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key every test trace is encoded under.
    const KEY: TraceKey = TraceKey {
        spec: 0x5eed_0001,
        workload: 0x5eed_0002,
        config: 0x5eed_0003,
    };

    fn sample_trace(n: usize) -> Vec<EpochRecord> {
        let spec = transmuter::config::MachineSpec::default().with_epoch_ops(100);
        let streams: Vec<transmuter::workload::OpStream> = (0..16)
            .map(|g| {
                (0..n as u64 * 40)
                    .flat_map(|i| {
                        [
                            transmuter::workload::Op::Load {
                                addr: g as u64 * 8192 + i * 32,
                                pc: 1,
                            },
                            transmuter::workload::Op::Flops(1),
                        ]
                    })
                    .collect()
            })
            .collect();
        let wl = transmuter::workload::Workload::new(
            "bin-test",
            vec![transmuter::workload::Phase::new("p", streams)],
        );
        crate::trace_cache::simulate_trace(spec, &wl, TransmuterConfig::baseline())
    }

    #[test]
    fn round_trips_a_real_trace() {
        let trace = sample_trace(4);
        assert!(!trace.is_empty());
        let bytes = encode_trace(&KEY, &trace);
        assert_eq!(bytes.len(), HEADER_BYTES + trace.len() * RECORD_BYTES);
        let back = decode_trace(&bytes, &KEY).expect("round trip");
        assert_eq!(trace, back);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let trace = sample_trace(6);
        let bin = encode_trace(&KEY, &trace).len();
        let json = serde_json::to_string(&trace).expect("json").len();
        let ratio = bin as f64 / json as f64;
        assert!(
            ratio <= 0.3,
            "binary should be <=0.3x JSON, got {ratio:.3} ({bin} vs {json})"
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode_trace(&KEY, &[]);
        assert_eq!(bytes.len(), HEADER_BYTES);
        assert_eq!(decode_trace(&bytes, &KEY).expect("empty"), Vec::new());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let trace = sample_trace(2);
        let good = encode_trace(&KEY, &trace);
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_trace(&bad, &KEY),
            Err(DecodeError::BadMagic(_))
        ));
        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(
            decode_trace(&bad, &KEY),
            Err(DecodeError::UnsupportedVersion(99))
        );
        let mut bad = good;
        bad[6] = 1;
        assert_eq!(decode_trace(&bad, &KEY), Err(DecodeError::BadFlags(1)));
    }

    #[test]
    fn rejects_any_truncation_without_panicking() {
        let trace = sample_trace(2);
        let bytes = encode_trace(&KEY, &trace);
        for len in 0..bytes.len() {
            let r = decode_trace(&bytes[..len], &KEY);
            assert!(r.is_err(), "length {len} should fail");
        }
    }

    #[test]
    fn huge_declared_count_is_rejected_cheaply() {
        let mut bytes = encode_trace(&KEY, &[]);
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_trace(&bytes, &KEY),
            Err(DecodeError::Truncated { .. })
        ));
    }

    // --- property tests -------------------------------------------------

    use proptest::prelude::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A record with arbitrary (but valid) field values derived from
    /// `seed`. Floats come from raw bit patterns — including NaNs and
    /// infinities — because the wire format must preserve them exactly.
    fn synth_record(seed: u64) -> EpochRecord {
        let mut s = seed;
        let mut fields = [0u64; 32];
        for f in &mut fields {
            *f = splitmix(&mut s);
        }
        let mut t = [0.0f64; 18];
        for (i, v) in t.iter_mut().enumerate() {
            *v = f64::from_bits(fields[10 + i]);
        }
        EpochRecord {
            index: (fields[0] % 1_000_000) as usize,
            config: TransmuterConfig {
                l1_kind: if fields[1] % 2 == 0 {
                    MemKind::Cache
                } else {
                    MemKind::Spm
                },
                l1_sharing: decode_sharing((fields[2] % 2) as u8, "t").unwrap(),
                l2_sharing: decode_sharing((fields[3] % 2) as u8, "t").unwrap(),
                l1_capacity_kb: (fields[4] % 1024) as u32,
                l2_capacity_kb: (fields[5] % 1024) as u32,
                clock: ClockFreq::ALL[(fields[6] % 6) as usize],
                prefetch_degree: (fields[7] % 16) as u8,
            },
            metrics: Metrics::new(
                f64::from_bits(fields[28]),
                f64::from_bits(fields[29]),
                fields[8],
            ),
            fp_ops: fields[9],
            telemetry: Telemetry {
                l1_access_throughput: t[0],
                l1_occupancy: t[1],
                l1_miss_rate: t[2],
                l1_prefetch_per_access: t[3],
                l1_capacity_kb: t[4],
                l2_access_throughput: t[5],
                l2_occupancy: t[6],
                l2_miss_rate: t[7],
                l2_prefetch_per_access: t[8],
                l2_capacity_kb: t[9],
                l1_xbar_contention_ratio: t[10],
                l2_xbar_contention_ratio: t[11],
                gpe_fp_ipc: t[12],
                gpe_ipc: t[13],
                lcp_ipc: t[14],
                clock_mhz: t[15],
                mem_read_util: t[16],
                mem_write_util: t[17],
            },
            reconfig_time_s: f64::from_bits(fields[30]),
            reconfig_energy_j: f64::from_bits(fields[31]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any trace of valid records survives encode → decode → encode
        /// bit-for-bit. Comparing the re-encoded bytes (rather than the
        /// records) keeps the check exact even when a float lane holds a
        /// NaN, whose record-level `==` is always false.
        #[test]
        fn arbitrary_traces_round_trip(seed in 0u64..u64::MAX, n in 0usize..8) {
            let trace: Vec<EpochRecord> =
                (0..n as u64).map(|i| synth_record(seed ^ i.wrapping_mul(0xABCD))).collect();
            let bytes = encode_trace(&KEY, &trace);
            let back = decode_trace(&bytes, &KEY);
            prop_assert!(back.is_ok(), "decode failed: {:?}", back.err());
            prop_assert_eq!(encode_trace(&KEY, &back.unwrap()), bytes);
        }

        /// Truncating an encoded trace anywhere yields an error, never a
        /// panic or a bogus success.
        #[test]
        fn truncation_always_errors(seed in 0u64..u64::MAX, cut in 0usize..1000) {
            let trace: Vec<EpochRecord> = (0..3u64).map(|i| synth_record(seed ^ i)).collect();
            let bytes = encode_trace(&KEY, &trace);
            let cut = cut % bytes.len();
            prop_assert!(decode_trace(&bytes[..cut], &KEY).is_err());
        }

        /// Flipping any header byte is detected: magic, version, flags
        /// and count are all validated before any record is read.
        #[test]
        fn header_corruption_is_detected(
            seed in 0u64..u64::MAX,
            pos in 0usize..HEADER_BYTES,
            flip in 1u8..=255,
        ) {
            let trace: Vec<EpochRecord> = (0..2u64).map(|i| synth_record(seed ^ i)).collect();
            let mut bytes = encode_trace(&KEY, &trace);
            bytes[pos] ^= flip;
            prop_assert!(
                decode_trace(&bytes, &KEY).is_err(),
                "corrupt header byte {} accepted", pos
            );
        }

        /// Body corruption never panics; the checksum turns it into a
        /// miss.
        #[test]
        fn body_corruption_never_panics(
            seed in 0u64..u64::MAX,
            pos in 0usize..(2 * RECORD_BYTES),
            flip in 1u8..=255,
        ) {
            let trace: Vec<EpochRecord> = (0..2u64).map(|i| synth_record(seed ^ i)).collect();
            let mut bytes = encode_trace(&KEY, &trace);
            let pos = HEADER_BYTES + pos;
            bytes[pos] ^= flip;
            prop_assert_eq!(decode_trace(&bytes, &KEY), Err(DecodeError::ChecksumMismatch));
        }

        /// Flipping any single bit anywhere in a valid encoding is a
        /// clean miss: header fields are validated, the key is compared
        /// and the records are covered by the checksum, so no flip can
        /// surface as a different-but-valid trace.
        #[test]
        fn single_bit_flip_is_a_clean_miss(
            seed in 0u64..u64::MAX,
            raw_pos in 0usize..=1 << 20,
            bit in 0u8..8,
        ) {
            let trace: Vec<EpochRecord> = (0..3u64).map(|i| synth_record(seed ^ i)).collect();
            let mut bytes = encode_trace(&KEY, &trace);
            let pos = raw_pos % bytes.len();
            bytes[pos] ^= 1 << bit;
            prop_assert!(
                decode_trace(&bytes, &KEY).is_err(),
                "bit {} of byte {} flipped, still decoded", bit, pos
            );
        }

        /// Overwriting a random span with arbitrary bytes is a clean miss
        /// (unless the junk happens to equal what it replaced).
        #[test]
        fn span_corruption_is_a_clean_miss(
            seed in 0u64..u64::MAX,
            raw_start in 0usize..=1 << 20,
            junk in proptest::collection::vec(0u8..=255, 1..64),
        ) {
            let trace: Vec<EpochRecord> = (0..3u64).map(|i| synth_record(seed ^ i)).collect();
            let valid = encode_trace(&KEY, &trace);
            let start = raw_start % valid.len();
            let end = (start + junk.len()).min(valid.len());
            let mut bytes = valid.clone();
            bytes[start..end].copy_from_slice(&junk[..end - start]);
            if bytes != valid {
                prop_assert!(
                    decode_trace(&bytes, &KEY).is_err(),
                    "span [{}, {}) corrupted, still decoded", start, end
                );
            }
        }

        /// Any other format version, older or newer, is rejected with
        /// the typed error carrying the version it found.
        #[test]
        fn version_skew_is_typed(version in 0u16..=u16::MAX) {
            let mut bytes = encode_trace(&KEY, &[synth_record(7)]);
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            if version != VERSION {
                prop_assert_eq!(
                    decode_trace(&bytes, &KEY),
                    Err(DecodeError::UnsupportedVersion(version))
                );
            }
        }

        /// Junk after the declared records is rejected.
        #[test]
        fn trailing_bytes_are_rejected(junk in proptest::collection::vec(0u8..=255, 1..32)) {
            let mut bytes = encode_trace(&KEY, &[synth_record(7)]);
            bytes.extend_from_slice(&junk);
            prop_assert_eq!(
                decode_trace(&bytes, &KEY),
                Err(DecodeError::TrailingBytes(junk.len()))
            );
        }

        /// An intact encoding asked for under any other key is rejected
        /// with the typed mismatch, whichever key field differs.
        #[test]
        fn another_key_is_a_typed_miss(field in 0usize..3, delta in 1u64..=u64::MAX) {
            let mut other = KEY;
            let slot = match field {
                0 => &mut other.spec,
                1 => &mut other.workload,
                _ => &mut other.config,
            };
            *slot = slot.wrapping_add(delta);
            let bytes = encode_trace(&KEY, &[synth_record(7)]);
            prop_assert_eq!(decode_trace(&bytes, &other), Err(DecodeError::KeyMismatch));
        }

        /// Arbitrary byte soup never decodes (and never panics), with or
        /// without a valid magic in front.
        #[test]
        fn random_garbage_is_a_clean_miss(
            soup in proptest::collection::vec(0u8..=255, 0..512),
            magic in 0u8..2,
        ) {
            let mut bytes = if magic == 1 { MAGIC.to_vec() } else { Vec::new() };
            bytes.extend_from_slice(&soup);
            prop_assert!(decode_trace(&bytes, &KEY).is_err());
        }

        /// The binary codec and the serde JSON form agree on every
        /// valid record (JSON cannot carry NaN/inf, so those lanes are
        /// scrubbed first), so both describe one epoch the same way.
        #[test]
        fn json_and_binary_decode_agree(seed in 0u64..u64::MAX, n in 1usize..4) {
            let mut trace: Vec<EpochRecord> =
                (0..n as u64).map(|i| synth_record(seed ^ i.wrapping_mul(0x77))).collect();
            for rec in &mut trace {
                scrub_floats(rec);
            }
            let via_bin = decode_trace(&encode_trace(&KEY, &trace), &KEY).expect("bin");
            let json = serde_json::to_string(&trace).expect("to json");
            let via_json: Vec<EpochRecord> = serde_json::from_str(&json).expect("from json");
            prop_assert_eq!(via_bin, via_json);
        }
    }

    /// Replaces non-finite floats with 0.0 so a record can make the
    /// JSON round trip.
    fn scrub_floats(rec: &mut EpochRecord) {
        let fix = |v: &mut f64| {
            if !v.is_finite() {
                *v = 0.0;
            }
        };
        fix(&mut rec.metrics.time_s);
        fix(&mut rec.metrics.energy_j);
        fix(&mut rec.reconfig_time_s);
        fix(&mut rec.reconfig_energy_j);
        let t = &mut rec.telemetry;
        for v in [
            &mut t.l1_access_throughput,
            &mut t.l1_occupancy,
            &mut t.l1_miss_rate,
            &mut t.l1_prefetch_per_access,
            &mut t.l1_capacity_kb,
            &mut t.l2_access_throughput,
            &mut t.l2_occupancy,
            &mut t.l2_miss_rate,
            &mut t.l2_prefetch_per_access,
            &mut t.l2_capacity_kb,
            &mut t.l1_xbar_contention_ratio,
            &mut t.l2_xbar_contention_ratio,
            &mut t.gpe_fp_ipc,
            &mut t.gpe_ipc,
            &mut t.lcp_ipc,
            &mut t.clock_mhz,
            &mut t.mem_read_util,
            &mut t.mem_write_util,
        ] {
            fix(v);
        }
    }
}
