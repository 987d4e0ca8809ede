//! Property wall for the strict Matrix Market parser: randomly
//! generated matrices across every valid (format × symmetry × field)
//! combination must survive serialise → parse → compare bit-for-bit,
//! and mechanically corrupted variants of valid files (truncation,
//! out-of-bounds indices, duplicate entries, random garbage) must be
//! rejected with typed [`MtxError`]s — never a panic.

use proptest::prelude::*;
use sparse::mtx::{
    content_hash, parse_str, write_string, MtxError, MtxField, MtxFormat, MtxSymmetry, WriteOptions,
};
use sparse::CooMatrix;

/// Splitmix-style step for in-test value streams (the vendored
/// proptest has range strategies but no composite matrix strategies,
/// so each matrix is derived from one seed).
fn step(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x
}

/// A value appropriate for the field: exactly-representable reals,
/// small integers, or 1.0 for pattern. Never zero, so every generated
/// coordinate survives canonicalisation.
fn value_for(field: MtxField, r: u64) -> f64 {
    match field {
        MtxField::Pattern => 1.0,
        MtxField::Integer => {
            let v = (r % 199) as i64 - 99;
            if v == 0 {
                7.0
            } else {
                v as f64
            }
        }
        MtxField::Real => {
            // Sign × mantissa/16 × 2^e: finite, dyadic, round-trips
            // through decimal text exactly.
            let mant = (r >> 8) % 4096 + 1;
            let exp = ((r >> 24) % 24) as i32 - 12;
            let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
            sign * (mant as f64 / 16.0) * 2f64.powi(exp)
        }
    }
}

/// A random matrix honouring `symmetry`'s structural constraints, with
/// distinct coordinates and field-appropriate values.
fn random_matrix(
    seed: u64,
    rows: u32,
    cols: u32,
    target: usize,
    field: MtxField,
    symmetry: MtxSymmetry,
) -> CooMatrix {
    let n = if symmetry == MtxSymmetry::General {
        rows
    } else {
        rows.min(cols)
    };
    let cols = if symmetry == MtxSymmetry::General {
        cols
    } else {
        n
    };
    let mut coo = CooMatrix::new(n.max(1), cols.max(1));
    let mut x = seed | 1;
    let mut seen = std::collections::HashSet::new();
    let mut placed = 0usize;
    let mut attempts = 0usize;
    while placed < target && attempts < target * 20 {
        attempts += 1;
        let r = (step(&mut x) % n.max(1) as u64) as u32;
        let c = (step(&mut x) % cols.max(1) as u64) as u32;
        let (r, c) = match symmetry {
            MtxSymmetry::General => (r, c),
            // Fold into the (strict) lower triangle.
            MtxSymmetry::Symmetric => (r.max(c), r.min(c)),
            MtxSymmetry::SkewSymmetric => {
                if r == c {
                    continue;
                }
                (r.max(c), r.min(c))
            }
        };
        if !seen.insert((r, c)) {
            continue;
        }
        let v = value_for(field, step(&mut x));
        coo.push(r, c, v);
        if r != c {
            match symmetry {
                MtxSymmetry::Symmetric => coo.push(c, r, v),
                MtxSymmetry::SkewSymmetric => coo.push(c, r, -v),
                MtxSymmetry::General => {}
            }
        }
        placed += 1;
    }
    coo
}

fn valid_combos() -> Vec<(MtxFormat, MtxField, MtxSymmetry)> {
    let mut combos = Vec::new();
    for format in [MtxFormat::Coordinate, MtxFormat::Array] {
        for field in [MtxField::Real, MtxField::Integer, MtxField::Pattern] {
            for symmetry in [
                MtxSymmetry::General,
                MtxSymmetry::Symmetric,
                MtxSymmetry::SkewSymmetric,
            ] {
                let pattern = field == MtxField::Pattern;
                if pattern && (format == MtxFormat::Array || symmetry == MtxSymmetry::SkewSymmetric)
                {
                    continue; // forbidden by the format specification
                }
                combos.push((format, field, symmetry));
            }
        }
    }
    combos
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serialise → parse → compare, across every valid banner
    /// combination, on one random matrix per case. The parsed matrix
    /// must equal the original in canonical form (bit-identical values)
    /// and hash identically.
    #[test]
    fn roundtrip_every_format_field_symmetry(
        seed in 0u64..u64::MAX,
        rows in 1u32..24,
        cols in 1u32..24,
        target in 0usize..40,
    ) {
        for (format, field, symmetry) in valid_combos() {
            let m = random_matrix(seed, rows, cols, target, field, symmetry);
            let opts = WriteOptions { format, field, symmetry };
            let text = write_string(&m, opts)
                .unwrap_or_else(|e| panic!("write {format} {field} {symmetry}: {e}"));
            let back = parse_str(&text)
                .unwrap_or_else(|e| panic!("parse back {format} {field} {symmetry}: {e}"));
            prop_assert_eq!(back.header.format, format);
            prop_assert_eq!(back.header.field, field);
            prop_assert_eq!(back.header.symmetry, symmetry);
            prop_assert_eq!(back.matrix.to_csr(), m.to_csr());
            prop_assert_eq!(content_hash(&back.matrix), content_hash(&m));
        }
    }

    /// Dropping the final data line of a valid coordinate file must
    /// yield `Truncated` — and never a panic.
    #[test]
    fn truncated_files_are_rejected(
        seed in 0u64..u64::MAX,
        rows in 2u32..24,
        target in 1usize..30,
    ) {
        let m = random_matrix(seed, rows, rows, target, MtxField::Real, MtxSymmetry::General);
        if m.raw_nnz() == 0 {
            return Ok(()); // degenerate draw: nothing to truncate
        }
        let text = write_string(&m, WriteOptions::default()).expect("writes");
        let cut = text.trim_end().rfind('\n').expect("multi-line");
        let got = parse_str(&text[..cut + 1]);
        prop_assert!(
            matches!(got, Err(MtxError::Truncated { .. })),
            "expected Truncated, got {:?}", got
        );
    }

    /// Rewriting one entry's row index to `rows + k` must yield
    /// `IndexOutOfBounds` naming the offending coordinate.
    #[test]
    fn out_of_bounds_indices_are_rejected(
        seed in 0u64..u64::MAX,
        rows in 2u32..24,
        target in 1usize..30,
        bump in 1u64..1000,
    ) {
        let m = random_matrix(seed, rows, rows, target, MtxField::Real, MtxSymmetry::General);
        if m.raw_nnz() == 0 {
            return Ok(());
        }
        let text = write_string(&m, WriteOptions::default()).expect("writes");
        let mut lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let last = lines.len() - 1;
        let parts: Vec<&str> = lines[last].split_whitespace().collect();
        let bad_row = rows as u64 + bump;
        lines[last] = format!("{bad_row} {} {}", parts[1], parts[2]);
        let got = parse_str(&(lines.join("\n") + "\n"));
        prop_assert!(
            matches!(got, Err(MtxError::IndexOutOfBounds { row, .. }) if row == bad_row),
            "expected IndexOutOfBounds({}), got {:?}", bad_row, got
        );
    }

    /// Repeating an entry (with the declared count raised to match)
    /// must yield `DuplicateEntry` at the repeat.
    #[test]
    fn duplicate_entries_are_rejected(
        seed in 0u64..u64::MAX,
        rows in 2u32..24,
        target in 1usize..30,
    ) {
        let m = random_matrix(seed, rows, rows, target, MtxField::Real, MtxSymmetry::General);
        if m.raw_nnz() == 0 {
            return Ok(());
        }
        let text = write_string(&m, WriteOptions::default()).expect("writes");
        let mut lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        // Size line is line 3 (banner, comment, size); raise its count.
        let dims: Vec<u64> = lines[2]
            .split_whitespace()
            .map(|t| t.parse().expect("size"))
            .collect();
        lines[2] = format!("{} {} {}", dims[0], dims[1], dims[2] + 1);
        let dup = lines[lines.len() - 1].clone();
        lines.push(dup);
        let got = parse_str(&(lines.join("\n") + "\n"));
        prop_assert!(
            matches!(got, Err(MtxError::DuplicateEntry { .. })),
            "expected DuplicateEntry, got {:?}", got
        );
    }

    /// Arbitrary printable garbage — random tokens, partial banners,
    /// shuffled digits — must always come back as `Err`, never panic.
    #[test]
    fn random_garbage_never_panics(
        seed in 0u64..u64::MAX,
        lines in 0usize..12,
        with_banner in 0u8..3,
    ) {
        let mut x = seed | 1;
        let mut text = String::new();
        if with_banner == 1 {
            text.push_str("%%MatrixMarket matrix coordinate real general\n");
        } else if with_banner == 2 {
            text.push_str("%%MatrixMarket matrix array real symmetric\n");
        }
        const ALPHABET: &[u8] = b"0123456789 .-eE%abcXYZ\t";
        for _ in 0..lines {
            let len = (step(&mut x) % 20) as usize;
            for _ in 0..len {
                let idx = (step(&mut x) % ALPHABET.len() as u64) as usize;
                text.push(ALPHABET[idx] as char);
            }
            text.push('\n');
        }
        // The only property: a typed Result, no panic. Valid documents
        // are astronomically unlikely but permitted.
        let _ = parse_str(&text);
    }
}
