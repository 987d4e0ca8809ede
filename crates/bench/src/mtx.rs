//! Real-matrix sources: MatrixMarket inputs registered by content hash.
//!
//! The evaluation suite names matrices by `&'static str` ids (`"R09"`);
//! real `.mtx` files arrive at runtime with no such name. This module
//! gives them one: the canonical content hash of the parsed matrix,
//! rendered as `mtx:<16 hex digits>`. Because the id *is* the content,
//! every cache keyed on a matrix id (workload memos, trace caches,
//! epoch caches) stays sound for uploaded matrices with zero extra
//! plumbing — two files with different whitespace, comment blocks,
//! entry order, or storage symmetry but the same canonical matrix
//! coalesce to one id, and a changed value changes the id.
//!
//! Registered matrices live in a process-wide registry (uploads are
//! rare and small relative to traces, so entries are kept for the
//! process lifetime, mirroring the workload memo). A spill directory
//! can be attached so registrations persist as `<hash>.mtx` files and
//! other processes — or this one after a restart — can resolve the same
//! ids lazily.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use sparse::gen::GenSeed;
use sparse::mtx::{self, MtxError, WriteOptions};
use sparse::suite::{spec_by_id, MatrixSpec, Scale};
use sparse::CooMatrix;

/// A matrix an experiment or a serve request can name: either a suite
/// spec (generated deterministically at a scale) or a registered
/// MatrixMarket matrix (used as-is at every scale).
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSource {
    /// A named suite dataset.
    Suite(MatrixSpec),
    /// A real matrix, identified by canonical content hash.
    Mtx {
        /// The content id, `mtx:<16 hex digits>`.
        id: String,
        /// The parsed matrix (shared with the registry).
        matrix: Arc<CooMatrix>,
    },
}

impl MatrixSource {
    /// The id clients use to name this source (`"R09"` or
    /// `"mtx:<hash>"`). Embeds the content for `.mtx` sources, so it is
    /// safe to use in cache keys.
    pub fn id(&self) -> &str {
        match self {
            MatrixSource::Suite(spec) => spec.id,
            MatrixSource::Mtx { id, .. } => id,
        }
    }

    /// Human-readable name (suite name, or the content id).
    pub fn name(&self) -> &str {
        match self {
            MatrixSource::Suite(spec) => spec.name,
            MatrixSource::Mtx { id, .. } => id,
        }
    }

    /// Whether the matrix is square (solver kernels require it).
    pub fn is_square(&self) -> bool {
        match self {
            MatrixSource::Suite(_) => true,
            MatrixSource::Mtx { matrix, .. } => matrix.rows() == matrix.cols(),
        }
    }

    /// Resolves an id: suite ids go through the suite table, `mtx:`
    /// ids through the registry (memory first, then the spill
    /// directory). A registered matrix's id is rebuilt from the hash it
    /// is registered under, which the registry verified on the way in,
    /// so resolving never re-hashes the matrix.
    pub fn resolve(id: &str) -> Option<MatrixSource> {
        if let Some(hex) = id.strip_prefix("mtx:") {
            let hash = u64::from_str_radix(hex, 16).ok()?;
            let matrix = lookup(hash)?;
            return Some(MatrixSource::Mtx {
                id: mtx::hash_id(hash),
                matrix,
            });
        }
        spec_by_id(id).map(MatrixSource::Suite)
    }

    /// The concrete matrix: generated for suite sources, shared as-is
    /// for registered ones (real matrices are not scaled down — their
    /// structure *is* the experiment).
    pub fn coo(&self, scale: Scale, seed: u64) -> Arc<CooMatrix> {
        match self {
            MatrixSource::Suite(spec) => Arc::new(spec.generate(scale, GenSeed(seed))),
            MatrixSource::Mtx { matrix, .. } => Arc::clone(matrix),
        }
    }
}

struct Registry {
    by_hash: HashMap<u64, Arc<CooMatrix>>,
    spill_dir: Option<PathBuf>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            by_hash: HashMap::new(),
            spill_dir: None,
        })
    })
}

/// Attaches (or detaches) the spill directory. New registrations are
/// persisted there as `<16 hex digits>.mtx`, and [`MatrixSource::resolve`]
/// falls back to it on a memory miss. The directory is created lazily.
pub fn set_spill_dir(dir: Option<PathBuf>) {
    registry().lock().unwrap().spill_dir = dir;
}

fn spill_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("{hash:016x}.mtx"))
}

/// Registers a parsed matrix under its content hash. Returns the source
/// and whether the content was already registered (the upload was a
/// duplicate). Persists to the spill directory when one is attached.
pub fn register(m: CooMatrix) -> (MatrixSource, bool) {
    let hash = mtx::content_hash(&m);
    let id = mtx::hash_id(hash);
    let mut reg = registry().lock().unwrap();
    let (matrix, dedup) = match reg.by_hash.get(&hash) {
        Some(existing) => (Arc::clone(existing), true),
        None => {
            let arc = Arc::new(m);
            reg.by_hash.insert(hash, Arc::clone(&arc));
            (arc, false)
        }
    };
    if let Some(dir) = reg.spill_dir.clone() {
        let path = spill_path(&dir, hash);
        if !path.exists() {
            let _ = std::fs::create_dir_all(&dir);
            let _ = mtx::save(&matrix, &path, WriteOptions::default());
        }
    }
    (MatrixSource::Mtx { id, matrix }, dedup)
}

/// Looks a hash up in memory, then in the spill directory. A spill file
/// whose content does not hash back to its name is ignored (truncated
/// or tampered spills must not alias a different matrix).
fn lookup(hash: u64) -> Option<Arc<CooMatrix>> {
    let spill = {
        let reg = registry().lock().unwrap();
        if let Some(m) = reg.by_hash.get(&hash) {
            return Some(Arc::clone(m));
        }
        reg.spill_dir.clone()
    };
    let path = spill_path(spill.as_deref()?, hash);
    let parsed = mtx::load(&path).ok()?;
    if mtx::content_hash(&parsed.matrix) != hash {
        return None;
    }
    let arc = Arc::new(parsed.matrix);
    registry()
        .lock()
        .unwrap()
        .by_hash
        .entry(hash)
        .or_insert_with(|| Arc::clone(&arc));
    Some(arc)
}

/// Parses and registers a `.mtx` file.
pub fn load_file(path: &Path) -> Result<MatrixSource, MtxError> {
    let parsed = mtx::load(path)?;
    Ok(register(parsed.matrix).0)
}

/// Parses and registers `.mtx` text (the upload path). Returns the
/// source and the duplicate flag.
pub fn register_text(text: &str) -> Result<(MatrixSource, bool), MtxError> {
    let parsed = mtx::parse_str(text)?;
    Ok(register(parsed.matrix))
}

/// Loads every `*.mtx` in a directory (sorted by file name, so table
/// rows are stable). Returns `(file stem, source)` pairs; a file that
/// fails to parse is reported as an error naming it.
pub fn scan_dir(dir: &Path) -> Result<Vec<(String, MatrixSource)>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "mtx"))
        .collect();
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = load_file(&path).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        out.push((stem, src));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-wide and tests run concurrently, so each
    // test registers content no other test does: the spill test drops
    // its own entry from memory, which must not undo another test's
    // registration between its two `register_text` calls.
    const TINY: &str = "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 2.0\n2 2 3.0\n3 1 -1.0\n3 3 4.0\n";
    const TINY_SPILLED: &str = "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 5.0\n2 2 3.0\n3 1 -1.0\n3 3 4.0\n";

    #[test]
    fn register_then_resolve_round_trips() {
        let (src, dedup) = register_text(TINY).unwrap();
        assert!(!dedup || MatrixSource::resolve(src.id()).is_some());
        assert!(src.id().starts_with("mtx:"));
        assert_eq!(src.id().len(), "mtx:".len() + 16);
        let back = MatrixSource::resolve(src.id()).expect("registered id resolves");
        assert_eq!(back, src);
        // The id is rebuilt from the hash, not echoed: hex digits in
        // either case name the one lower-case id the content hashes to.
        let MatrixSource::Mtx { matrix, .. } = &back else {
            panic!("an mtx id resolves to an Mtx source");
        };
        assert_eq!(back.id(), mtx::content_id(matrix));
        let upper = format!("mtx:{}", src.id()["mtx:".len()..].to_ascii_uppercase());
        let from_upper = MatrixSource::resolve(&upper).expect("upper-case hex resolves");
        assert_eq!(from_upper.id(), src.id());
        // Second registration of the same content is a dedup.
        let (again, dedup2) = register_text(TINY).unwrap();
        assert!(dedup2);
        assert_eq!(again.id(), src.id());
    }

    #[test]
    fn suite_ids_still_resolve() {
        let src = MatrixSource::resolve("R09").expect("suite id");
        assert_eq!(src.id(), "R09");
        assert!(src.is_square());
        assert!(MatrixSource::resolve("mtx:nothex").is_none());
        assert!(MatrixSource::resolve("mtx:0000000000000000").is_none());
        assert!(MatrixSource::resolve("R99").is_none());
    }

    #[test]
    fn spill_dir_survives_memory_miss() {
        let dir = std::env::temp_dir().join(format!("sa-mtx-spill-{}", std::process::id()));
        set_spill_dir(Some(dir.clone()));
        let (src, _) = register_text(TINY_SPILLED).unwrap();
        let hash = u64::from_str_radix(&src.id()["mtx:".len()..], 16).unwrap();
        assert!(spill_path(&dir, hash).exists());
        // Drop the in-memory entry and resolve again through the spill.
        registry().lock().unwrap().by_hash.remove(&hash);
        let back = MatrixSource::resolve(src.id()).expect("resolves via spill");
        assert_eq!(back.id(), src.id());
        set_spill_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
