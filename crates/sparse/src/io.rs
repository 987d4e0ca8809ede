//! Matrix Market (`.mtx`) import/export — `io::Error` compatibility
//! wrappers over the strict streaming parser in [`mtx`].
//!
//! The paper's real-world suite comes from SuiteSparse and SNAP, both
//! distributed as Matrix Market files. These entry points keep the
//! original `io::Result` signatures for existing callers; new code that
//! wants the typed [`MtxError`](crate::mtx::MtxError) variants, array
//! format, skew symmetry or streaming file loads should call
//! [`mtx`] directly.

use std::io;
use std::path::Path;

use crate::{mtx, CooMatrix};

/// Parses Matrix Market text.
///
/// Supports coordinate and array forms; `general`, `symmetric` and
/// `skew-symmetric` storage; `real`, `integer` and `pattern` fields.
/// Pattern entries get value 1.0; symmetric off-diagonal entries are
/// mirrored (negated for skew-symmetric).
///
/// # Errors
///
/// Returns `InvalidData` on malformed headers, counts or entries
/// (including duplicate coordinates and out-of-bounds indices — see
/// [`mtx::MtxError`] for the full typed taxonomy).
pub fn parse_matrix_market(text: &str) -> io::Result<CooMatrix> {
    Ok(mtx::parse_str(text)?.matrix)
}

/// Serialises a matrix as general real coordinate Matrix Market text.
/// The matrix is canonicalised first (duplicates merged, explicit
/// zeros dropped), so the output always re-parses under the strict
/// parser.
pub fn to_matrix_market(m: &CooMatrix) -> String {
    mtx::write_string(m, mtx::WriteOptions::default())
        .expect("general real coordinate serialisation cannot fail")
}

/// Loads a `.mtx` file, streaming it from disk.
///
/// # Errors
///
/// Propagates I/O and parse errors.
pub fn load_matrix_market(path: &Path) -> io::Result<CooMatrix> {
    Ok(mtx::load(path)?.matrix)
}

/// Writes a `.mtx` file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_matrix_market(m: &CooMatrix, path: &Path) -> io::Result<()> {
    std::fs::write(path, to_matrix_market(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 2\n\
                    1 1 2.5\n\
                    3 2 -1\n";
        let m = parse_matrix_market(text).unwrap().to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), Some(2.5));
        assert_eq!(m.get(2, 1), Some(-1.0));
    }

    #[test]
    fn symmetric_entries_are_mirrored() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 2\n\
                    2 1 4\n\
                    3 3 7\n";
        let m = parse_matrix_market(text).unwrap().to_csr();
        assert_eq!(m.get(1, 0), Some(4.0));
        assert_eq!(m.get(0, 1), Some(4.0));
        assert_eq!(m.get(2, 2), Some(7.0));
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn pattern_entries_get_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 1\n\
                    1 2\n";
        let m = parse_matrix_market(text).unwrap().to_csr();
        assert_eq!(m.get(0, 1), Some(1.0));
    }

    #[test]
    fn array_form_is_supported() {
        let text = "%%MatrixMarket matrix array real general\n1 1\n3.25\n";
        let m = parse_matrix_market(text).unwrap().to_csr();
        assert_eq!(m.get(0, 0), Some(3.25));
    }

    #[test]
    fn roundtrip() {
        let mut coo = CooMatrix::new(4, 5);
        coo.push(0, 4, 1.5);
        coo.push(3, 0, -2.0);
        let text = to_matrix_market(&coo);
        let parsed = parse_matrix_market(&text).unwrap();
        assert_eq!(parsed.to_csr(), coo.to_csr());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_matrix_market("").is_err());
        // Out-of-bounds index.
        assert!(parse_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1\n"
        )
        .is_err());
        // Truncated: one entry declared as two.
        assert!(parse_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n"
        )
        .is_err());
        // Duplicate coordinate.
        assert!(parse_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n1 1 2\n"
        )
        .is_err());
    }
}
