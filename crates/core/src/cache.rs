//! Persistent, content-addressed cache of synthesized kernels.
//!
//! Synthesis is deterministic but expensive; a fleet of processes should
//! pay for each kernel **once ever**. This module stores the verified
//! program of a finished synthesis query on disk, keyed by the *content*
//! of the query:
//!
//! # Key schema
//!
//! The key is a human-readable text document (not just a hash) listing
//! everything the synthesized program depends on:
//!
//! * cache format version and cost-model version (bumping either orphans
//!   old entries),
//! * the latency model, as exact `f64` bit patterns,
//! * the spec's canonical form: `n`, `t`, input arities, output mask, and
//!   the symbolic polynomial of every masked output slot (the same
//!   canonical form the verifier uses, so two references that compute the
//!   same function share cache entries — the kernel *name* is
//!   deliberately excluded),
//! * the sketch: mode, component bounds, rotation vocabulary, and each
//!   component hole,
//! * caller configuration lines: scheme, optimization level, whether
//!   phase-2 cost minimization ran, and the parameter policy.
//!
//! The RNG seed, thread count, and timeout are deliberately **not** part
//! of the key: the search result is a canonical function of the query (see
//! `crate::search` docs), so those knobs cannot change a completed
//! answer — and every entry is re-verified against the spec on read before
//! being trusted anyway.
//!
//! # On-disk format and robustness
//!
//! Entries live under [`default_cache_dir`] (`$PORCUPINE_CACHE_DIR`, else
//! `$HOME/.cache/porcupine`), one file per key, named by a 128-bit FNV
//! hash of the key text. The full key text is stored *inside* the entry
//! and compared on read, so hash collisions degrade to cache misses, never
//! to wrong programs. Writes go to a temp file and are renamed into place.
//! A truncated, corrupted, or version-mismatched entry is ignored (and
//! counted in [`CacheStats::rejected`]) — reads never panic and never
//! return a program that fails strict parsing. The CEGIS driver adds the
//! final safety net: it re-runs full verification on every entry before
//! returning it.
//!
//! This disk tier is the second of two: the CEGIS driver keeps an
//! in-process memo of results it already verified (see
//! [`crate::cegis::clear_synthesis_memo`]), so a repeated query in one
//! process — staged pipelines re-issue identical stage queries — replays
//! in microseconds without re-reading or re-verifying anything. The disk
//! tier is what survives the process and feeds the next one.

use crate::sketch::{ArithOp, Sketch, SketchMode};
use crate::spec::KernelSpec;
use quill::cost::LatencyModel;
use quill::program::{Program, PtOperand};
use quill::sexpr;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Bump to orphan every existing cache entry after an on-disk format
/// change. v2: keys carry a `scheme` config line (the scheme-generic
/// backend layer), so entries written before schemes existed — keyed
/// without one — can never be mistaken for BFV results.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Version of the *internal search cost semantics* (how the search prices
/// candidates: eager relinearization per multiply, one rotation
/// charge per distinct `(value, rotation)`, latency × (1 + depth)). Part
/// of the key because a different costing can prefer a different program
/// for the same query. v2: every enumerator sums a program's latencies in
/// instruction order (`quill::cost::eager_cost`); the term bank used to
/// add its rotations last, which could round a goal's cost differently.
pub const COST_MODEL_VERSION: u32 = 2;

const MAGIC: &str = "porcupine-cache";

/// Process-wide cache effectiveness counters (all monotone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries that parsed, matched their key, and re-verified.
    pub hits: u64,
    /// Lookups that found no usable entry (absent, rejected, or failed
    /// re-verification).
    pub misses: u64,
    /// Entries written back after a successful synthesis.
    pub stores: u64,
    /// Files that existed but were discarded: unreadable, truncated,
    /// corrupted, version- or key-mismatched, or failed re-verification.
    pub rejected: u64,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
static REJECTED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide cache counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Relaxed),
        misses: MISSES.load(Relaxed),
        stores: STORES.load(Relaxed),
        rejected: REJECTED.load(Relaxed),
    }
}

pub(crate) fn record_hit() {
    HITS.fetch_add(1, Relaxed);
}

pub(crate) fn record_miss() {
    MISSES.fetch_add(1, Relaxed);
}

pub(crate) fn record_rejected() {
    REJECTED.fetch_add(1, Relaxed);
}

/// The resolved cache directory: `$PORCUPINE_CACHE_DIR` if set, else
/// `$HOME/.cache/porcupine`, else `None` (caching silently disabled).
pub fn default_cache_dir() -> Option<PathBuf> {
    if let Some(dir) = std::env::var_os("PORCUPINE_CACHE_DIR") {
        if !dir.is_empty() {
            return Some(PathBuf::from(dir));
        }
    }
    std::env::var_os("HOME").filter(|h| !h.is_empty()).map(|h| {
        let mut p = PathBuf::from(h);
        p.push(".cache");
        p.push("porcupine");
        p
    })
}

/// A fully rendered cache key: the canonical text document described in
/// the module docs, plus its filename hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    text: String,
}

impl CacheKey {
    /// Renders the key for one synthesis query. `config` carries the
    /// driver-level knobs (scheme, opt level, optimize flag, params policy)
    /// as `(name, value)` lines so this module does not depend on
    /// the CEGIS types.
    pub fn new(
        spec: &KernelSpec,
        sketch: &Sketch,
        latency: &LatencyModel,
        config: &[(&str, String)],
    ) -> Self {
        let mut text = String::new();
        let w = &mut text;
        let _ = writeln!(w, "format {CACHE_FORMAT_VERSION}");
        let _ = writeln!(w, "cost-model {COST_MODEL_VERSION}");
        let _ = writeln!(
            w,
            "latency-bits {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x}",
            latency.add_ct_ct.to_bits(),
            latency.sub_ct_ct.to_bits(),
            latency.mul_ct_ct.to_bits(),
            latency.add_ct_pt.to_bits(),
            latency.sub_ct_pt.to_bits(),
            latency.mul_ct_pt.to_bits(),
            latency.rot_ct.to_bits(),
            latency.relin_ct.to_bits(),
        );
        let _ = writeln!(
            w,
            "spec n {} t {} ct {} pt {}",
            spec.n, spec.t, spec.num_ct_inputs, spec.num_pt_inputs
        );
        let mask: String = spec
            .output_mask
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        let _ = writeln!(w, "mask {mask}");
        // The spec's canonical form: the verifier's symbolic polynomials,
        // one line per masked slot.
        let sym = spec.eval_symbolic();
        for (i, poly) in sym.iter().enumerate() {
            if spec.output_mask[i] {
                let _ = writeln!(w, "out {i} {poly}");
            }
        }
        let mode = match sketch.mode {
            SketchMode::LocalRotate => "local-rotate",
            SketchMode::ExplicitRotate => "explicit-rotate",
        };
        let _ = writeln!(
            w,
            "sketch mode {mode} min {} max {}",
            sketch.min_components, sketch.max_components
        );
        let rots: Vec<String> = sketch
            .rotation_amounts
            .iter()
            .map(|r| r.to_string())
            .collect();
        let _ = writeln!(w, "rotations {}", rots.join(" "));
        for op in &sketch.ops {
            let name = match &op.op {
                ArithOp::AddCtCt => "add-ct-ct".to_string(),
                ArithOp::SubCtCt => "sub-ct-ct".to_string(),
                ArithOp::MulCtCt => "mul-ct-ct".to_string(),
                ArithOp::AddCtPt(p) => format!("add-ct-pt {}", pt_operand(p)),
                ArithOp::SubCtPt(p) => format!("sub-ct-pt {}", pt_operand(p)),
                ArithOp::MulCtPt(p) => format!("mul-ct-pt {}", pt_operand(p)),
            };
            let _ = writeln!(w, "op {name} lhs-rot {} rhs-rot {}", op.lhs_rot, op.rhs_rot);
        }
        for (k, v) in config {
            let _ = writeln!(w, "{k} {v}");
        }
        CacheKey { text }
    }

    /// The canonical key text (also stored inside every entry).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The entry filename for this key under a cache directory.
    pub fn file_name(&self) -> String {
        format!("{}.synth", fnv128_hex(&self.text))
    }
}

fn pt_operand(p: &PtOperand) -> String {
    match p {
        PtOperand::Input(i) => format!("input {i}"),
        PtOperand::Splat(v) => format!("splat {v}"),
    }
}

/// 128-bit content hash for filenames: two independent 64-bit FNV-1a
/// states (different offset bases, the second mixing a rotated byte).
/// Collisions are harmless — the key text is compared on read — this only
/// has to spread filenames.
fn fnv128_hex(text: &str) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
    for b in text.bytes() {
        h1 ^= u64::from(b);
        h1 = h1.wrapping_mul(PRIME);
        h2 ^= u64::from(b).rotate_left(17) ^ 0xff;
        h2 = h2.wrapping_mul(PRIME);
    }
    format!("{h1:016x}{h2:016x}")
}

/// One parsed cache entry. The program has passed strict s-expression
/// parsing and structural validation, but **not** semantic verification —
/// the caller must re-verify against the spec before trusting it.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The synthesized (pre-middle-end) program.
    pub program: Program,
    /// Component count reported by the original synthesis.
    pub components: usize,
    /// CEGIS examples the original synthesis used.
    pub examples_used: usize,
    /// Final internal cost of the program.
    pub final_cost: f64,
    /// Whether phase 2 exhausted the space (optimality proof).
    pub proved_optimal: bool,
}

/// Looks up `key` under `dir`. Returns `None` — never panics — when the
/// entry is absent, unreadable, truncated, corrupted, from another format
/// version, or stored under a colliding hash with different key text.
/// Counts a rejection (but not a miss — the caller decides after
/// re-verification) for files that exist but cannot be used.
pub fn lookup(dir: &Path, key: &CacheKey) -> Option<CacheEntry> {
    let path = dir.join(key.file_name());
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(_) => return None, // absent (or unreadable): plain miss
    };
    match parse_entry(&bytes, key) {
        Some(entry) => Some(entry),
        None => {
            record_rejected();
            None
        }
    }
}

/// Strict entry parser; any anomaly is `None`.
fn parse_entry(bytes: &[u8], key: &CacheKey) -> Option<CacheEntry> {
    let text = std::str::from_utf8(bytes).ok()?;
    let rest = text.strip_prefix(&format!("{MAGIC} v{CACHE_FORMAT_VERSION}\n"))?;
    let (len_line, rest) = rest.split_once('\n')?;
    let key_len: usize = len_line.strip_prefix("key-bytes ")?.parse().ok()?;
    if rest.len() < key_len {
        return None; // truncated
    }
    let (stored_key, rest) = rest.split_at(key_len);
    if stored_key != key.text() {
        return None; // hash collision or stale semantics
    }
    let rest = rest.strip_prefix('\n')?;
    let (comp_line, rest) = rest.split_once('\n')?;
    let components: usize = comp_line.strip_prefix("components ")?.parse().ok()?;
    let (ex_line, rest) = rest.split_once('\n')?;
    let examples_used: usize = ex_line.strip_prefix("examples-used ")?.parse().ok()?;
    let (cost_line, rest) = rest.split_once('\n')?;
    let cost_bits = u64::from_str_radix(cost_line.strip_prefix("final-cost-bits ")?, 16).ok()?;
    let final_cost = f64::from_bits(cost_bits);
    if !final_cost.is_finite() || final_cost < 0.0 {
        return None;
    }
    let (opt_line, rest) = rest.split_once('\n')?;
    let proved_optimal = match opt_line.strip_prefix("proved-optimal ")? {
        "true" => true,
        "false" => false,
        _ => return None,
    };
    let (len_line, src) = rest.split_once('\n')?;
    let prog_len: usize = len_line.strip_prefix("program-bytes ")?.parse().ok()?;
    if src.len() != prog_len {
        return None; // truncated (or padded) program body
    }
    let program = sexpr::parse_program(src).ok()?;
    program.validate().ok()?;
    Some(CacheEntry {
        program,
        components,
        examples_used,
        final_cost,
        proved_optimal,
    })
}

/// Writes an entry for `key` under `dir` (creating it), via a temp file +
/// rename so concurrent readers never observe a torn write. Best-effort:
/// an I/O error just means the next process synthesizes again.
pub fn store(dir: &Path, key: &CacheKey, entry: &CacheEntry) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut body = String::new();
    let w = &mut body;
    let _ = writeln!(w, "{MAGIC} v{CACHE_FORMAT_VERSION}");
    let _ = writeln!(w, "key-bytes {}", key.text().len());
    w.push_str(key.text());
    let _ = writeln!(w);
    let _ = writeln!(w, "components {}", entry.components);
    let _ = writeln!(w, "examples-used {}", entry.examples_used);
    let _ = writeln!(w, "final-cost-bits {:016x}", entry.final_cost.to_bits());
    let _ = writeln!(w, "proved-optimal {}", entry.proved_optimal);
    let src = sexpr::to_string(&entry.program);
    let _ = writeln!(w, "program-bytes {}", src.len());
    w.push_str(&src);
    let file_name = key.file_name();
    let tmp = dir.join(format!(".{file_name}.tmp-{}", std::process::id()));
    std::fs::write(&tmp, body.as_bytes())?;
    let result = std::fs::rename(&tmp, dir.join(&file_name));
    if result.is_ok() {
        STORES.fetch_add(1, Relaxed);
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{RotationSet, SketchOp};
    use crate::spec::GenericReference;
    use quill::ring::Ring;

    struct Double;
    impl GenericReference for Double {
        fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
            ct[0].iter().map(|x| x.add(x)).collect()
        }
    }

    fn spec() -> KernelSpec {
        KernelSpec::new("double", 4, 1, 0, vec![], 65537, Box::new(Double))
    }

    fn sketch() -> Sketch {
        Sketch::new(
            vec![SketchOp::rotated(ArithOp::AddCtCt)],
            RotationSet::PowersOfTwo { extent: 4 },
            3,
        )
    }

    fn key() -> CacheKey {
        CacheKey::new(
            &spec(),
            &sketch(),
            &LatencyModel::uniform(),
            &[("opt-level", "O2".into()), ("optimize", "true".into())],
        )
    }

    fn entry() -> CacheEntry {
        let src = "(kernel double-x (inputs (ct 1) (pt 0)) (let c1 (add-ct-ct c0 c0)) (return c1))";
        CacheEntry {
            program: sexpr::parse_program(src).unwrap(),
            components: 1,
            examples_used: 2,
            final_cost: 45.4,
            proved_optimal: true,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("porcupine-cache-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_an_entry() {
        let dir = temp_dir("roundtrip");
        let k = key();
        assert!(lookup(&dir, &k).is_none(), "empty dir is a miss");
        store(&dir, &k, &entry()).unwrap();
        let got = lookup(&dir, &k).expect("stored entry should load");
        assert_eq!(got.program.to_string(), entry().program.to_string());
        assert_eq!(got.components, 1);
        assert_eq!(got.examples_used, 2);
        assert_eq!(got.final_cost.to_bits(), 45.4f64.to_bits());
        assert!(got.proved_optimal);
    }

    #[test]
    fn key_depends_on_semantics_not_name() {
        struct DoubleRenamed;
        impl GenericReference for DoubleRenamed {
            fn compute<R: Ring>(&self, ct: &[Vec<R>], _pt: &[Vec<R>]) -> Vec<R> {
                ct[0].iter().map(|x| x.add(x)).collect()
            }
        }
        let renamed = KernelSpec::new(
            "other-name",
            4,
            1,
            0,
            vec![],
            65537,
            Box::new(DoubleRenamed),
        );
        let cfg = [("opt-level", "O2".to_string())];
        let lat = LatencyModel::uniform();
        let a = CacheKey::new(&spec(), &sketch(), &lat, &cfg);
        let b = CacheKey::new(&renamed, &sketch(), &lat, &cfg);
        assert_eq!(a, b, "same canonical semantics ⇒ same key");
        let c = CacheKey::new(&spec(), &sketch(), &LatencyModel::profiled_default(), &cfg);
        assert_ne!(a, c, "latency model is part of the key");
        let mut wider = sketch();
        wider.max_components = 4;
        let d = CacheKey::new(&spec(), &wider, &lat, &cfg);
        assert_ne!(a, d, "sketch bounds are part of the key");
    }

    #[test]
    fn truncated_entry_is_rejected() {
        let dir = temp_dir("truncated");
        let k = key();
        store(&dir, &k, &entry()).unwrap();
        let path = dir.join(k.file_name());
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(lookup(&dir, &k).is_none(), "cut at {cut} must be a miss");
        }
    }

    #[test]
    fn corrupted_program_is_rejected() {
        let dir = temp_dir("corrupt");
        let k = key();
        store(&dir, &k, &entry()).unwrap();
        let path = dir.join(k.file_name());
        let text = std::fs::read_to_string(&path).unwrap();
        // Mangle the s-expression body.
        std::fs::write(&path, text.replace("add-ct-ct", "frob-ct-ct")).unwrap();
        assert!(lookup(&dir, &k).is_none());
        // Non-UTF8 garbage.
        std::fs::write(&path, [0xff, 0xfe, 0x00, 0x01]).unwrap();
        assert!(lookup(&dir, &k).is_none());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dir = temp_dir("version");
        let k = key();
        store(&dir, &k, &entry()).unwrap();
        let path = dir.join(k.file_name());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace(
                &format!("{MAGIC} v{CACHE_FORMAT_VERSION}"),
                &format!("{MAGIC} v{}", CACHE_FORMAT_VERSION + 1),
            ),
        )
        .unwrap();
        assert!(lookup(&dir, &k).is_none());
    }

    #[test]
    fn colliding_hash_with_different_key_is_rejected() {
        let dir = temp_dir("collision");
        let k = key();
        store(&dir, &k, &entry()).unwrap();
        // Another key whose file we forge at the same path: the stored key
        // text differs, so the entry must be ignored.
        let other = CacheKey::new(
            &spec(),
            &sketch(),
            &LatencyModel::uniform(),
            &[("opt-level", "O0".into())],
        );
        let forged = dir.join(other.file_name());
        std::fs::copy(dir.join(k.file_name()), &forged).unwrap();
        assert!(lookup(&dir, &other).is_none());
    }
}
