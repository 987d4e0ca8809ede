//! Strict, streaming Matrix Market (`.mtx`) reader and writer.
//!
//! The [`io`](crate::io) module keeps its original lenient, `io::Error`
//! based entry points for backwards compatibility; this module is the
//! engine underneath them and the surface new code should use. It
//! differs from a quick line-splitting parser in the ways that matter
//! when real SuiteSparse files and cache keys are involved:
//!
//! * **Streaming.** [`parse_reader`] consumes any [`BufRead`] line by
//!   line — no full-file `String` is ever built, so multi-hundred-MB
//!   matrices parse in bounded memory beyond the triplets themselves.
//! * **Typed errors.** Every malformed input is rejected with a
//!   structured [`MtxError`] carrying the offending line number and
//!   values — never a panic, never a stringly-typed error.
//! * **Both formats, three symmetries, three fields.** `coordinate` and
//!   `array` forms; `general`, `symmetric` and `skew-symmetric`
//!   storage; `real`, `integer` and `pattern` fields. The two
//!   combinations the spec forbids (`pattern` `array`, `pattern`
//!   `skew-symmetric`) are rejected up front.
//! * **Strict entry accounting.** Coordinate files must contain exactly
//!   the declared number of entries (truncation and trailing data are
//!   both errors), duplicate coordinates are rejected, symmetric /
//!   skew-symmetric files must store only their lower triangle, and
//!   skew-symmetric diagonals are forbidden.
//! * **Content hashing.** [`content_hash`] / [`content_id`] fingerprint
//!   the *canonical* matrix (sorted, deduplicated, explicit zeros
//!   dropped), so the same matrix serialised in different formats or
//!   entry orders hashes identically — the property the serve layer's
//!   upload-by-content-hash dedup and the trace/epoch caches rely on.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::io::BufRead;
use std::path::Path;

use crate::CooMatrix;

/// Storage format declared in the banner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtxFormat {
    /// Explicit `row col [value]` triplets.
    Coordinate,
    /// Dense column-major value listing.
    Array,
}

impl fmt::Display for MtxFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MtxFormat::Coordinate => "coordinate",
            MtxFormat::Array => "array",
        })
    }
}

/// Value field declared in the banner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtxField {
    /// Floating-point values.
    Real,
    /// Integer values (stored as `f64` internally).
    Integer,
    /// No values; every stored entry is an implicit 1.0.
    Pattern,
}

impl fmt::Display for MtxField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MtxField::Real => "real",
            MtxField::Integer => "integer",
            MtxField::Pattern => "pattern",
        })
    }
}

/// Symmetry structure declared in the banner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtxSymmetry {
    /// All entries stored explicitly.
    General,
    /// Lower triangle stored; `A[j][i] = A[i][j]` implied.
    Symmetric,
    /// Strict lower triangle stored; `A[j][i] = -A[i][j]` implied and
    /// the diagonal is identically zero.
    SkewSymmetric,
}

impl fmt::Display for MtxSymmetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MtxSymmetry::General => "general",
            MtxSymmetry::Symmetric => "symmetric",
            MtxSymmetry::SkewSymmetric => "skew-symmetric",
        })
    }
}

/// Everything the banner and size line declared about the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MtxHeader {
    /// Coordinate or array storage.
    pub format: MtxFormat,
    /// Value field type.
    pub field: MtxField,
    /// Symmetry structure.
    pub symmetry: MtxSymmetry,
    /// Row count.
    pub rows: u32,
    /// Column count.
    pub cols: u32,
    /// Stored entries the size line promised: the nnz field for
    /// coordinate files, the (symmetry-dependent) dense value count for
    /// array files.
    pub declared_entries: usize,
}

/// A parsed Matrix Market file: the header as declared plus the
/// reconstructed matrix (symmetric / skew-symmetric entries mirrored,
/// pattern entries valued 1.0).
#[derive(Debug, Clone, PartialEq)]
pub struct MtxMatrix {
    /// Banner and size-line metadata.
    pub header: MtxHeader,
    /// The reconstructed triplets.
    pub matrix: CooMatrix,
}

/// Typed rejection reasons for malformed Matrix Market input (and for
/// serialising a matrix that does not satisfy the requested symmetry or
/// field). Line numbers are 1-based positions in the input stream.
#[derive(Debug, Clone, PartialEq)]
pub enum MtxError {
    /// An underlying read or write failed.
    Io(String),
    /// The input had no lines at all.
    EmptyFile,
    /// The first line is not a `%%MatrixMarket` banner with five tokens.
    BadBanner {
        /// The offending first line.
        line: String,
    },
    /// The banner's object token is not `matrix`.
    UnsupportedObject {
        /// The offending token.
        object: String,
    },
    /// The banner's format token is neither `coordinate` nor `array`.
    UnsupportedFormat {
        /// The offending token.
        format: String,
    },
    /// The banner's field token is not `real`, `integer` or `pattern`
    /// (`complex` is not supported).
    UnsupportedField {
        /// The offending token.
        field: String,
    },
    /// The banner's symmetry token is not `general`, `symmetric` or
    /// `skew-symmetric` (`hermitian` is not supported).
    UnsupportedSymmetry {
        /// The offending token.
        symmetry: String,
    },
    /// A banner combination the format specification forbids:
    /// `pattern` with `array`, or `pattern` with `skew-symmetric`.
    InvalidCombination {
        /// Declared format.
        format: MtxFormat,
        /// Declared field.
        field: MtxField,
        /// Declared symmetry.
        symmetry: MtxSymmetry,
    },
    /// The file ended before a size line appeared.
    MissingSizeLine,
    /// The size line is not the right shape (field count or numeric
    /// range) for the declared format.
    BadSizeLine {
        /// 1-based line number.
        line_no: usize,
        /// The offending line.
        line: String,
    },
    /// The size line declares a zero-row or zero-column matrix.
    ZeroDimension {
        /// Declared rows.
        rows: u64,
        /// Declared columns.
        cols: u64,
    },
    /// A symmetric or skew-symmetric file declares a non-square shape.
    NotSquareFile {
        /// Declared rows.
        rows: u32,
        /// Declared columns.
        cols: u32,
    },
    /// A data line could not be parsed as an entry of the declared
    /// field type (wrong token count or unparseable number).
    BadEntry {
        /// 1-based line number.
        line_no: usize,
        /// The offending line.
        line: String,
    },
    /// A coordinate entry lies outside the declared dimensions (Matrix
    /// Market indices are 1-based; 0 is out of bounds).
    IndexOutOfBounds {
        /// 1-based line number.
        line_no: usize,
        /// 1-based row index as written.
        row: u64,
        /// 1-based column index as written.
        col: u64,
        /// Declared rows.
        rows: u32,
        /// Declared columns.
        cols: u32,
    },
    /// The same coordinate appears twice.
    DuplicateEntry {
        /// 1-based line number of the second occurrence.
        line_no: usize,
        /// 1-based row index.
        row: u32,
        /// 1-based column index.
        col: u32,
    },
    /// A symmetric or skew-symmetric file stores an entry above the
    /// diagonal (only the lower triangle may be stored).
    UpperTriangleEntry {
        /// 1-based line number.
        line_no: usize,
        /// 1-based row index.
        row: u32,
        /// 1-based column index.
        col: u32,
    },
    /// A skew-symmetric file stores a diagonal entry (the diagonal is
    /// identically zero and must not be stored).
    SkewDiagonalEntry {
        /// 1-based line number.
        line_no: usize,
        /// 1-based row (= column) index.
        row: u32,
    },
    /// The file ended with fewer entries than the size line declared.
    Truncated {
        /// Entries the size line declared.
        expected: usize,
        /// Entries actually present.
        got: usize,
    },
    /// Data continues after the declared entry count was reached.
    TrailingData {
        /// 1-based line number of the first extra line.
        line_no: usize,
    },
    /// Serialisation was asked for `symmetric` but the matrix has an
    /// entry whose mirror differs.
    NotSymmetric {
        /// 0-based row of the offending entry.
        row: u32,
        /// 0-based column of the offending entry.
        col: u32,
    },
    /// Serialisation was asked for `skew-symmetric` but the matrix has
    /// a nonzero diagonal entry or a mirror that is not the negation.
    NotSkewSymmetric {
        /// 0-based row of the offending entry.
        row: u32,
        /// 0-based column of the offending entry.
        col: u32,
    },
    /// Serialisation was asked for the `integer` field but a value is
    /// not an integer.
    NotIntegral {
        /// 0-based row of the offending entry.
        row: u32,
        /// 0-based column of the offending entry.
        col: u32,
        /// The non-integral value.
        value: f64,
    },
}

impl fmt::Display for MtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtxError::Io(msg) => write!(f, "i/o error: {msg}"),
            MtxError::EmptyFile => write!(f, "empty file"),
            MtxError::BadBanner { line } => {
                write!(f, "not a %%MatrixMarket banner: {line:?}")
            }
            MtxError::UnsupportedObject { object } => {
                write!(f, "unsupported object {object:?} (only 'matrix')")
            }
            MtxError::UnsupportedFormat { format } => {
                write!(
                    f,
                    "unsupported format {format:?} (expected 'coordinate' or 'array')"
                )
            }
            MtxError::UnsupportedField { field } => {
                write!(
                    f,
                    "unsupported field {field:?} (expected 'real', 'integer' or 'pattern')"
                )
            }
            MtxError::UnsupportedSymmetry { symmetry } => {
                write!(
                    f,
                    "unsupported symmetry {symmetry:?} (expected 'general', 'symmetric' or \
                     'skew-symmetric')"
                )
            }
            MtxError::InvalidCombination {
                format,
                field,
                symmetry,
            } => {
                write!(
                    f,
                    "the combination {format} {field} {symmetry} is not valid Matrix Market"
                )
            }
            MtxError::MissingSizeLine => write!(f, "missing size line"),
            MtxError::BadSizeLine { line_no, line } => {
                write!(f, "bad size line at line {line_no}: {line:?}")
            }
            MtxError::ZeroDimension { rows, cols } => {
                write!(f, "zero-dimension matrix ({rows} x {cols})")
            }
            MtxError::NotSquareFile { rows, cols } => {
                write!(
                    f,
                    "symmetric storage requires a square matrix, got {rows} x {cols}"
                )
            }
            MtxError::BadEntry { line_no, line } => {
                write!(f, "bad entry at line {line_no}: {line:?}")
            }
            MtxError::IndexOutOfBounds {
                line_no,
                row,
                col,
                rows,
                cols,
            } => {
                write!(
                    f,
                    "entry ({row}, {col}) at line {line_no} outside declared {rows} x {cols} \
                     (1-based indices)"
                )
            }
            MtxError::DuplicateEntry { line_no, row, col } => {
                write!(f, "duplicate entry ({row}, {col}) at line {line_no}")
            }
            MtxError::UpperTriangleEntry { line_no, row, col } => {
                write!(
                    f,
                    "entry ({row}, {col}) at line {line_no} is above the diagonal; symmetric \
                     storage holds only the lower triangle"
                )
            }
            MtxError::SkewDiagonalEntry { line_no, row } => {
                write!(
                    f,
                    "diagonal entry ({row}, {row}) at line {line_no} is forbidden in \
                     skew-symmetric storage"
                )
            }
            MtxError::Truncated { expected, got } => {
                write!(f, "truncated: expected {expected} entries, found {got}")
            }
            MtxError::TrailingData { line_no } => {
                write!(
                    f,
                    "trailing data at line {line_no} after all declared entries"
                )
            }
            MtxError::NotSymmetric { row, col } => {
                write!(
                    f,
                    "matrix is not symmetric at (row {row}, col {col}); cannot write symmetric \
                     storage"
                )
            }
            MtxError::NotSkewSymmetric { row, col } => {
                write!(
                    f,
                    "matrix is not skew-symmetric at (row {row}, col {col}); cannot write \
                     skew-symmetric storage"
                )
            }
            MtxError::NotIntegral { row, col, value } => {
                write!(
                    f,
                    "value {value} at (row {row}, col {col}) is not an integer; cannot write \
                     integer field"
                )
            }
        }
    }
}

impl Error for MtxError {}

impl From<std::io::Error> for MtxError {
    fn from(e: std::io::Error) -> Self {
        MtxError::Io(e.to_string())
    }
}

impl From<MtxError> for std::io::Error {
    fn from(e: MtxError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

fn parse_banner(line: &str) -> Result<(MtxFormat, MtxField, MtxSymmetry), MtxError> {
    // Banner keywords are case-insensitive per the format definition.
    let lower = line.trim().to_ascii_lowercase();
    let toks: Vec<&str> = lower.split_whitespace().collect();
    if toks.len() != 5 || toks[0] != "%%matrixmarket" {
        return Err(MtxError::BadBanner {
            line: line.trim().to_string(),
        });
    }
    if toks[1] != "matrix" {
        return Err(MtxError::UnsupportedObject {
            object: toks[1].to_string(),
        });
    }
    let format = match toks[2] {
        "coordinate" => MtxFormat::Coordinate,
        "array" => MtxFormat::Array,
        other => {
            return Err(MtxError::UnsupportedFormat {
                format: other.to_string(),
            })
        }
    };
    let field = match toks[3] {
        "real" => MtxField::Real,
        "integer" => MtxField::Integer,
        "pattern" => MtxField::Pattern,
        other => {
            return Err(MtxError::UnsupportedField {
                field: other.to_string(),
            })
        }
    };
    let symmetry = match toks[4] {
        "general" => MtxSymmetry::General,
        "symmetric" => MtxSymmetry::Symmetric,
        "skew-symmetric" => MtxSymmetry::SkewSymmetric,
        other => {
            return Err(MtxError::UnsupportedSymmetry {
                symmetry: other.to_string(),
            })
        }
    };
    let pattern = field == MtxField::Pattern;
    if pattern && (format == MtxFormat::Array || symmetry == MtxSymmetry::SkewSymmetric) {
        return Err(MtxError::InvalidCombination {
            format,
            field,
            symmetry,
        });
    }
    Ok((format, field, symmetry))
}

/// How many dense values an array file stores for each symmetry.
fn array_entry_count(rows: u32, cols: u32, symmetry: MtxSymmetry) -> usize {
    let (n, m) = (rows as usize, cols as usize);
    match symmetry {
        MtxSymmetry::General => n * m,
        MtxSymmetry::Symmetric => n * (n + 1) / 2,
        MtxSymmetry::SkewSymmetric => n * (n - 1) / 2,
    }
}

fn parse_value(field: MtxField, tok: &str) -> Option<f64> {
    match field {
        MtxField::Pattern => Some(1.0),
        MtxField::Integer => tok.parse::<i64>().ok().map(|v| v as f64),
        MtxField::Real => tok.parse::<f64>().ok().filter(|v| v.is_finite()),
    }
}

/// Parses Matrix Market text from any buffered reader, streaming line
/// by line.
///
/// # Errors
///
/// Returns a typed [`MtxError`] for any malformed input; never panics.
pub fn parse_reader<R: BufRead>(reader: R) -> Result<MtxMatrix, MtxError> {
    let mut lines = reader.lines().enumerate();
    let banner = match lines.next() {
        Some((_, line)) => line?,
        None => return Err(MtxError::EmptyFile),
    };
    let (format, field, symmetry) = parse_banner(&banner)?;

    // Skip comments and blank lines up to the size line.
    let mut size = None;
    for (idx, line) in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size = Some((idx + 1, t.to_string()));
        break;
    }
    let (size_no, size_line) = size.ok_or(MtxError::MissingSizeLine)?;
    let bad_size = || MtxError::BadSizeLine {
        line_no: size_no,
        line: size_line.clone(),
    };
    let nums: Vec<u64> = size_line
        .split_whitespace()
        .map(|s| s.parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| bad_size())?;
    let want_fields = match format {
        MtxFormat::Coordinate => 3,
        MtxFormat::Array => 2,
    };
    if nums.len() != want_fields {
        return Err(bad_size());
    }
    let (rows64, cols64) = (nums[0], nums[1]);
    if rows64 == 0 || cols64 == 0 {
        return Err(MtxError::ZeroDimension {
            rows: rows64,
            cols: cols64,
        });
    }
    if rows64 > u32::MAX as u64 || cols64 > u32::MAX as u64 {
        return Err(bad_size());
    }
    let (rows, cols) = (rows64 as u32, cols64 as u32);
    if symmetry != MtxSymmetry::General && rows != cols {
        return Err(MtxError::NotSquareFile { rows, cols });
    }
    let declared = match format {
        MtxFormat::Coordinate => {
            let nnz = nums[2];
            if nnz > usize::MAX as u64 {
                return Err(bad_size());
            }
            nnz as usize
        }
        MtxFormat::Array => array_entry_count(rows, cols, symmetry),
    };
    let header = MtxHeader {
        format,
        field,
        symmetry,
        rows,
        cols,
        declared_entries: declared,
    };

    let mut coo = CooMatrix::new(rows, cols);
    match format {
        MtxFormat::Coordinate => {
            // Cap the preallocations: a hostile size line must not OOM us.
            let cap = declared.min(1 << 20);
            let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(cap);
            let mut read = 0usize;
            for (idx, line) in lines {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                let line_no = idx + 1;
                if read == declared {
                    return Err(MtxError::TrailingData { line_no });
                }
                let bad = || MtxError::BadEntry {
                    line_no,
                    line: t.to_string(),
                };
                let parts: Vec<&str> = t.split_whitespace().collect();
                let want = if field == MtxField::Pattern { 2 } else { 3 };
                if parts.len() != want {
                    return Err(bad());
                }
                let r64: u64 = parts[0].parse().map_err(|_| bad())?;
                let c64: u64 = parts[1].parse().map_err(|_| bad())?;
                if r64 == 0 || c64 == 0 || r64 > rows as u64 || c64 > cols as u64 {
                    return Err(MtxError::IndexOutOfBounds {
                        line_no,
                        row: r64,
                        col: c64,
                        rows,
                        cols,
                    });
                }
                let (r, c) = (r64 as u32 - 1, c64 as u32 - 1);
                let v = match field {
                    MtxField::Pattern => 1.0,
                    _ => parse_value(field, parts[2]).ok_or_else(bad)?,
                };
                match symmetry {
                    MtxSymmetry::General => {}
                    MtxSymmetry::Symmetric | MtxSymmetry::SkewSymmetric => {
                        if r < c {
                            return Err(MtxError::UpperTriangleEntry {
                                line_no,
                                row: r + 1,
                                col: c + 1,
                            });
                        }
                        if symmetry == MtxSymmetry::SkewSymmetric && r == c {
                            return Err(MtxError::SkewDiagonalEntry {
                                line_no,
                                row: r + 1,
                            });
                        }
                    }
                }
                if !seen.insert((r, c)) {
                    return Err(MtxError::DuplicateEntry {
                        line_no,
                        row: r + 1,
                        col: c + 1,
                    });
                }
                coo.push(r, c, v);
                if r != c {
                    match symmetry {
                        MtxSymmetry::Symmetric => coo.push(c, r, v),
                        MtxSymmetry::SkewSymmetric => coo.push(c, r, -v),
                        MtxSymmetry::General => {}
                    }
                }
                read += 1;
            }
            if read < declared {
                return Err(MtxError::Truncated {
                    expected: declared,
                    got: read,
                });
            }
        }
        MtxFormat::Array => {
            // Column-major cursor over the stored region of each column.
            let mut got = 0usize;
            let (mut i, mut j) = match symmetry {
                MtxSymmetry::SkewSymmetric => (1u32, 0u32),
                _ => (0u32, 0u32),
            };
            for (idx, line) in lines {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                let line_no = idx + 1;
                for tok in t.split_whitespace() {
                    if got == declared {
                        return Err(MtxError::TrailingData { line_no });
                    }
                    let v = parse_value(field, tok).ok_or_else(|| MtxError::BadEntry {
                        line_no,
                        line: t.to_string(),
                    })?;
                    if v != 0.0 {
                        coo.push(i, j, v);
                        if i != j {
                            match symmetry {
                                MtxSymmetry::Symmetric => coo.push(j, i, v),
                                MtxSymmetry::SkewSymmetric => coo.push(j, i, -v),
                                MtxSymmetry::General => {}
                            }
                        }
                    }
                    got += 1;
                    i += 1;
                    if i == rows {
                        j += 1;
                        i = match symmetry {
                            MtxSymmetry::General => 0,
                            MtxSymmetry::Symmetric => j,
                            MtxSymmetry::SkewSymmetric => j + 1,
                        };
                    }
                }
            }
            if got < declared {
                return Err(MtxError::Truncated {
                    expected: declared,
                    got,
                });
            }
        }
    }
    Ok(MtxMatrix {
        header,
        matrix: coo,
    })
}

/// Parses Matrix Market text held in memory (thin wrapper over
/// [`parse_reader`]).
///
/// # Errors
///
/// Returns a typed [`MtxError`] for any malformed input.
pub fn parse_str(text: &str) -> Result<MtxMatrix, MtxError> {
    parse_reader(text.as_bytes())
}

/// Loads a `.mtx` file, streaming it through a [`std::io::BufReader`].
///
/// # Errors
///
/// Returns [`MtxError::Io`] for filesystem failures and the parser's
/// typed errors for malformed content.
pub fn load(path: &Path) -> Result<MtxMatrix, MtxError> {
    let file = std::fs::File::open(path)?;
    parse_reader(std::io::BufReader::new(file))
}

/// Options controlling [`write_string`] output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOptions {
    /// Coordinate (default) or array storage.
    pub format: MtxFormat,
    /// Real (default), integer or pattern field.
    pub field: MtxField,
    /// General (default), symmetric or skew-symmetric storage.
    pub symmetry: MtxSymmetry,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            format: MtxFormat::Coordinate,
            field: MtxField::Real,
            symmetry: MtxSymmetry::General,
        }
    }
}

fn format_value(field: MtxField, v: f64) -> String {
    match field {
        MtxField::Integer => format!("{}", v as i64),
        // `Display` for f64 prints the shortest representation that
        // parses back to the same bits, so coordinate round-trips are
        // exact.
        _ => format!("{v}"),
    }
}

/// Serialises a matrix as Matrix Market text in the requested format,
/// field and symmetry. The matrix is canonicalised first (duplicates
/// merged, explicit zeros dropped, entries sorted), so the output is
/// always accepted by the strict parser.
///
/// # Errors
///
/// * [`MtxError::InvalidCombination`] for `pattern`+`array` or
///   `pattern`+`skew-symmetric` requests.
/// * [`MtxError::NotSquareFile`] / [`MtxError::NotSymmetric`] /
///   [`MtxError::NotSkewSymmetric`] when the matrix does not satisfy
///   the requested symmetry.
/// * [`MtxError::NotIntegral`] when an `integer` write meets a
///   fractional value.
pub fn write_string(m: &CooMatrix, opts: WriteOptions) -> Result<String, MtxError> {
    let WriteOptions {
        format,
        field,
        symmetry,
    } = opts;
    if field == MtxField::Pattern
        && (format == MtxFormat::Array || symmetry == MtxSymmetry::SkewSymmetric)
    {
        return Err(MtxError::InvalidCombination {
            format,
            field,
            symmetry,
        });
    }
    let csr = m.to_csr();
    let (rows, cols) = (csr.rows(), csr.cols());
    if symmetry != MtxSymmetry::General {
        if rows != cols {
            return Err(MtxError::NotSquareFile { rows, cols });
        }
        for (r, c, v) in csr.iter() {
            match symmetry {
                MtxSymmetry::Symmetric => {
                    if csr.get(c, r) != Some(v) {
                        return Err(MtxError::NotSymmetric { row: r, col: c });
                    }
                }
                MtxSymmetry::SkewSymmetric => {
                    if r == c || csr.get(c, r) != Some(-v) {
                        return Err(MtxError::NotSkewSymmetric { row: r, col: c });
                    }
                }
                MtxSymmetry::General => {}
            }
        }
    }
    if field == MtxField::Integer {
        for (r, c, v) in csr.iter() {
            if v.fract() != 0.0 || v.abs() >= 9.0e18 {
                return Err(MtxError::NotIntegral {
                    row: r,
                    col: c,
                    value: v,
                });
            }
        }
    }

    let mut out = format!("%%MatrixMarket matrix {format} {field} {symmetry}\n");
    out.push_str("% written by sparseadapt-rs\n");
    match format {
        MtxFormat::Coordinate => {
            let stored: Vec<(u32, u32, f64)> = csr
                .iter()
                .filter(|&(r, c, _)| match symmetry {
                    MtxSymmetry::General => true,
                    MtxSymmetry::Symmetric => r >= c,
                    MtxSymmetry::SkewSymmetric => r > c,
                })
                .collect();
            out.push_str(&format!("{rows} {cols} {}\n", stored.len()));
            for (r, c, v) in stored {
                match field {
                    MtxField::Pattern => out.push_str(&format!("{} {}\n", r + 1, c + 1)),
                    _ => out.push_str(&format!("{} {} {}\n", r + 1, c + 1, format_value(field, v))),
                }
            }
        }
        MtxFormat::Array => {
            out.push_str(&format!("{rows} {cols}\n"));
            for j in 0..cols {
                let start = match symmetry {
                    MtxSymmetry::General => 0,
                    MtxSymmetry::Symmetric => j,
                    MtxSymmetry::SkewSymmetric => j + 1,
                };
                for i in start..rows {
                    let v = csr.get(i, j).unwrap_or(0.0);
                    out.push_str(&format_value(field, v));
                    out.push('\n');
                }
            }
        }
    }
    Ok(out)
}

/// Writes a `.mtx` file with the given options.
///
/// # Errors
///
/// Propagates [`write_string`] errors plus [`MtxError::Io`] for
/// filesystem failures.
pub fn save(m: &CooMatrix, path: &Path, opts: WriteOptions) -> Result<(), MtxError> {
    let text = write_string(m, opts)?;
    std::fs::write(path, text)?;
    Ok(())
}

/// FNV-1a over the canonical (CSR) form: dimensions, row offsets,
/// column indices and value bits. Two files describing the same matrix
/// — different formats, symmetries, entry orders or value spellings —
/// hash identically, which is what makes `mtx:<hash>` identifiers safe
/// keys for the trace and epoch caches.
pub fn content_hash(m: &CooMatrix) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = BASIS;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    let csr = m.to_csr();
    eat(csr.rows() as u64);
    eat(csr.cols() as u64);
    for &off in csr.row_offsets() {
        eat(off as u64);
    }
    for &c in csr.col_indices() {
        eat(c as u64);
    }
    for &v in csr.values() {
        eat(v.to_bits());
    }
    h
}

/// The canonical workload-layer identifier for an ingested matrix:
/// `mtx:` followed by the 16-hex-digit [`content_hash`].
pub fn content_id(m: &CooMatrix) -> String {
    hash_id(content_hash(m))
}

/// The [`content_id`] of a matrix whose [`content_hash`] is `hash`,
/// without the matrix.
pub fn hash_id(hash: u64) -> String {
    format!("mtx:{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr_of(text: &str) -> crate::CsrMatrix {
        parse_str(text).expect("parses").matrix.to_csr()
    }

    #[test]
    fn banner_keywords_are_case_insensitive() {
        let m = parse_str("%%MatrixMarket MATRIX Coordinate REAL General\n2 2 1\n1 2 3.5\n")
            .expect("parses");
        assert_eq!(m.header.format, MtxFormat::Coordinate);
        assert_eq!(m.matrix.to_csr().get(0, 1), Some(3.5));
    }

    #[test]
    fn skew_symmetric_mirrors_negated() {
        let m =
            csr_of("%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 4\n3 1 -1\n");
        assert_eq!(m.get(1, 0), Some(4.0));
        assert_eq!(m.get(0, 1), Some(-4.0));
        assert_eq!(m.get(2, 0), Some(-1.0));
        assert_eq!(m.get(0, 2), Some(1.0));
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn array_general_is_column_major() {
        let m = csr_of("%%MatrixMarket matrix array real general\n2 3\n1\n2\n0\n4\n5\n6\n");
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(1, 0), Some(2.0));
        assert_eq!(m.get(0, 1), None); // explicit zero dropped
        assert_eq!(m.get(1, 1), Some(4.0));
        assert_eq!(m.get(0, 2), Some(5.0));
        assert_eq!(m.get(1, 2), Some(6.0));
    }

    #[test]
    fn array_symmetric_stores_lower_triangle() {
        // Column 0: (0,0) (1,0); column 1: (1,1).
        let m = csr_of("%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n");
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(1, 0), Some(2.0));
        assert_eq!(m.get(0, 1), Some(2.0));
        assert_eq!(m.get(1, 1), Some(3.0));
    }

    #[test]
    fn array_skew_symmetric_stores_strict_lower_triangle() {
        // 3x3 skew: column 0 rows 1..3, column 1 row 2..3 → 3 values.
        let m = csr_of("%%MatrixMarket matrix array real skew-symmetric\n3 3\n7\n8\n9\n");
        assert_eq!(m.get(1, 0), Some(7.0));
        assert_eq!(m.get(0, 1), Some(-7.0));
        assert_eq!(m.get(2, 0), Some(8.0));
        assert_eq!(m.get(2, 1), Some(9.0));
        assert_eq!(m.get(1, 2), Some(-9.0));
        assert_eq!(m.get(0, 0), None);
    }

    #[test]
    fn integer_field_parses_and_rejects_floats() {
        let ok = parse_str("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 -7\n");
        assert_eq!(ok.expect("parses").matrix.to_csr().get(0, 0), Some(-7.0));
        let err = parse_str("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1.5\n");
        assert!(matches!(err, Err(MtxError::BadEntry { line_no: 3, .. })));
    }

    #[test]
    fn pattern_combinations_the_spec_forbids_are_rejected() {
        let arr = parse_str("%%MatrixMarket matrix array pattern general\n2 2\n1\n1\n1\n1\n");
        assert!(matches!(arr, Err(MtxError::InvalidCombination { .. })));
        let skew =
            parse_str("%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 1\n2 1\n");
        assert!(matches!(skew, Err(MtxError::InvalidCombination { .. })));
    }

    #[test]
    fn duplicates_truncation_and_trailing_data_are_typed_errors() {
        let dup = parse_str("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n1 1 2\n");
        assert_eq!(
            dup,
            Err(MtxError::DuplicateEntry {
                line_no: 4,
                row: 1,
                col: 1
            })
        );
        let trunc = parse_str("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n");
        assert_eq!(
            trunc,
            Err(MtxError::Truncated {
                expected: 3,
                got: 1
            })
        );
        let trail =
            parse_str("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 1\n");
        assert_eq!(trail, Err(MtxError::TrailingData { line_no: 4 }));
    }

    #[test]
    fn out_of_bounds_and_zero_indices_are_rejected() {
        let oob = parse_str("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n");
        assert!(matches!(
            oob,
            Err(MtxError::IndexOutOfBounds { row: 3, .. })
        ));
        let zero = parse_str("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n");
        assert!(matches!(
            zero,
            Err(MtxError::IndexOutOfBounds { row: 0, .. })
        ));
    }

    #[test]
    fn symmetric_upper_triangle_and_skew_diagonal_are_rejected() {
        let upper = parse_str("%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n1 2 5\n");
        assert!(matches!(upper, Err(MtxError::UpperTriangleEntry { .. })));
        let diag =
            parse_str("%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 1\n2 2 5\n");
        assert!(matches!(
            diag,
            Err(MtxError::SkewDiagonalEntry { row: 2, .. })
        ));
    }

    #[test]
    fn non_square_symmetric_is_rejected() {
        let e = parse_str("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n2 1 5\n");
        assert_eq!(e, Err(MtxError::NotSquareFile { rows: 2, cols: 3 }));
    }

    #[test]
    fn writer_round_trips_every_symmetry_and_format() {
        // A symmetric matrix with an off-diagonal pair and a diagonal.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.5);
        coo.push(2, 0, -2.25);
        coo.push(0, 2, -2.25);
        coo.push(1, 1, 4.0);
        let want = coo.to_csr();
        for format in [MtxFormat::Coordinate, MtxFormat::Array] {
            for symmetry in [MtxSymmetry::General, MtxSymmetry::Symmetric] {
                let text = write_string(
                    &coo,
                    WriteOptions {
                        format,
                        field: MtxField::Real,
                        symmetry,
                    },
                )
                .expect("writes");
                let back = parse_str(&text).expect("parses back");
                assert_eq!(back.matrix.to_csr(), want, "{format} {symmetry}");
            }
        }
        // Skew round-trip on a skew matrix.
        let mut skew = CooMatrix::new(3, 3);
        skew.push(1, 0, 3.0);
        skew.push(0, 1, -3.0);
        let want = skew.to_csr();
        for format in [MtxFormat::Coordinate, MtxFormat::Array] {
            let text = write_string(
                &skew,
                WriteOptions {
                    format,
                    field: MtxField::Real,
                    symmetry: MtxSymmetry::SkewSymmetric,
                },
            )
            .expect("writes");
            assert_eq!(parse_str(&text).expect("parses").matrix.to_csr(), want);
        }
    }

    #[test]
    fn writer_rejects_matrices_that_lack_the_requested_structure() {
        let mut asym = CooMatrix::new(2, 2);
        asym.push(1, 0, 3.0);
        let e = write_string(
            &asym,
            WriteOptions {
                symmetry: MtxSymmetry::Symmetric,
                ..WriteOptions::default()
            },
        );
        assert!(matches!(e, Err(MtxError::NotSymmetric { .. })));
        let e = write_string(
            &asym,
            WriteOptions {
                symmetry: MtxSymmetry::SkewSymmetric,
                ..WriteOptions::default()
            },
        );
        assert!(matches!(e, Err(MtxError::NotSkewSymmetric { .. })));
        let mut frac = CooMatrix::new(2, 2);
        frac.push(0, 0, 1.5);
        let e = write_string(
            &frac,
            WriteOptions {
                field: MtxField::Integer,
                ..WriteOptions::default()
            },
        );
        assert!(matches!(e, Err(MtxError::NotIntegral { .. })));
    }

    #[test]
    fn content_hash_is_format_invariant() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(2, 1, -3.5);
        coo.push(1, 2, -3.5);
        coo.push(2, 1, 0.0); // duplicate + explicit zero: canonicalised away
        let base = content_hash(&coo);
        // Same matrix, different entry order.
        let mut shuffled = CooMatrix::new(4, 4);
        shuffled.push(1, 2, -3.5);
        shuffled.push(2, 1, -3.5);
        shuffled.push(0, 0, 1.0);
        assert_eq!(content_hash(&shuffled), base);
        // Serialise as array, parse back: same hash.
        let text = write_string(
            &shuffled,
            WriteOptions {
                format: MtxFormat::Array,
                ..WriteOptions::default()
            },
        )
        .expect("writes");
        assert_eq!(
            content_hash(&parse_str(&text).expect("parses").matrix),
            base
        );
        // A genuinely different matrix hashes differently.
        let mut other = CooMatrix::new(4, 4);
        other.push(0, 0, 2.0);
        assert_ne!(content_hash(&other), base);
        assert_eq!(content_id(&shuffled), format!("mtx:{base:016x}"));
    }

    #[test]
    fn empty_and_bannerless_input_are_typed_errors() {
        assert_eq!(parse_str(""), Err(MtxError::EmptyFile));
        assert!(matches!(
            parse_str("1 1 1\n1 1 1\n"),
            Err(MtxError::BadBanner { .. })
        ));
        assert_eq!(
            parse_str("%%MatrixMarket matrix coordinate real general\n"),
            Err(MtxError::MissingSizeLine)
        );
        assert!(matches!(
            parse_str("%%MatrixMarket matrix coordinate real general\n0 2 0\n"),
            Err(MtxError::ZeroDimension { .. })
        ));
        assert!(matches!(
            parse_str("%%MatrixMarket vector coordinate real general\n2 2 0\n"),
            Err(MtxError::UnsupportedObject { .. })
        ));
        assert!(matches!(
            parse_str("%%MatrixMarket matrix coordinate complex general\n2 2 0\n"),
            Err(MtxError::UnsupportedField { .. })
        ));
        assert!(matches!(
            parse_str("%%MatrixMarket matrix coordinate real hermitian\n2 2 0\n"),
            Err(MtxError::UnsupportedSymmetry { .. })
        ));
    }
}
