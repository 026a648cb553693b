//! Persistent synthesis-cache integration (ISSUE 7): a warm cache answers
//! the same query with the byte-identical program **without invoking the
//! search at all**, and every corruption mode falls back to a cold
//! rebuild.
//!
//! The cache is two-tier — an in-process memo in front of the disk
//! entries — so the disk-tier tests call
//! [`porcupine::clear_synthesis_memo`] before each warm query: without
//! it the memo would answer and the disk path (read, parse, re-verify)
//! would go untested.
//!
//! The cold/warm pairs and the invocation-counter deltas live inside
//! single `#[test]` functions — `porcupine::search_invocations` is a
//! process-wide counter (and the memo is process-wide state), and
//! splitting the assertions across tests would race under the parallel
//! test runner. For the same reason every test holds [`exclusive`]: one
//! test's search or memo clear must not land between another's query and
//! its hit assertions.

use porcupine::cegis::{synthesize, CachePolicy, SearchStrategy};
use porcupine::{clear_synthesis_memo, search_invocations};
use porcupine_kernels::{composite, reduction, stencil};
use quill::scheme::SchemeId;
use test_support::{fast_synthesis_options, with_strategy};

/// Serializes this file's tests over the process-wide memo and search
/// counter (a panicking test poisons the lock; the next one still runs).
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A fresh cache directory under the target-dir scratch space.
fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("porcupine-cache-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Cold run populates the cache; the warm run returns the byte-identical
/// program as a cache hit with **zero** search invocations.
#[test]
fn warm_cache_skips_the_search_entirely() {
    let _state = exclusive();
    let dir = temp_cache_dir("warm");
    let k = stencil::box_blur(stencil::default_image());
    let mut options = fast_synthesis_options();
    options.cache = CachePolicy::At(dir.clone());

    let cold = synthesize(&k.spec, &k.sketch, &options).expect("cold box blur");
    assert!(!cold.cache_hit);

    // Disk tier: clear the memo so the warm query must read, parse, and
    // re-verify the persisted entry.
    clear_synthesis_memo();
    let before = search_invocations();
    let warm = synthesize(&k.spec, &k.sketch, &options).expect("warm box blur");
    let after = search_invocations();
    assert!(warm.cache_hit, "second identical query must hit the cache");
    assert_eq!(
        after - before,
        0,
        "a cache hit must not invoke the search at all"
    );
    assert_eq!(
        warm.program.to_string(),
        cold.program.to_string(),
        "cold and warm programs must be byte-identical"
    );
    assert_eq!(warm.final_cost.to_bits(), cold.final_cost.to_bits());

    // Memo tier: the entry is now in-process; even with the disk entry
    // deleted, the same query replays as a hit with zero searches.
    for entry in std::fs::read_dir(&dir).expect("cache dir").flatten() {
        let _ = std::fs::remove_file(entry.path());
    }
    let before = search_invocations();
    let memo = synthesize(&k.spec, &k.sketch, &options).expect("memoized box blur");
    assert!(memo.cache_hit, "in-process memo must answer repeat queries");
    assert_eq!(
        search_invocations() - before,
        0,
        "a memo hit must not invoke the search at all"
    );
    assert_eq!(memo.program.to_string(), cold.program.to_string());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache key covers the whole query: changing the strategy, the
/// optimization flag, or the kernel misses instead of returning a stale
/// program.
#[test]
fn cache_keys_separate_distinct_queries() {
    let _state = exclusive();
    let dir = temp_cache_dir("keys");
    let k = stencil::box_blur(stencil::default_image());
    let mut options = with_strategy(fast_synthesis_options(), SearchStrategy::BottomUp);
    options.cache = CachePolicy::At(dir.clone());
    let _ = synthesize(&k.spec, &k.sketch, &options).expect("cold box blur");

    // Different strategy: same semantics, different key — a miss.
    let dfs = synthesize(
        &k.spec,
        &k.sketch,
        &with_strategy(options.clone(), SearchStrategy::Dfs),
    )
    .expect("dfs box blur");
    assert!(!dfs.cache_hit, "strategy is part of the cache key");

    // Different kernel, same cache dir: a miss, not a collision.
    let other = reduction::hamming_distance(4);
    let r = synthesize(&other.spec, &other.sketch, &options).expect("hamming");
    assert!(!r.cache_hit, "distinct specs must not share entries");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scheme backend is part of the cache key: the same spec and sketch
/// synthesized for BGV must miss an entry written for BFV (format v2) —
/// the two schemes lower and cost differently, so replaying a BFV answer
/// for a BGV query would be a stale-result bug.
#[test]
fn changing_the_scheme_misses_the_cache() {
    let _state = exclusive();
    let dir = temp_cache_dir("scheme");
    let k = reduction::hamming_distance(4);
    let mut options = fast_synthesis_options();
    options.cache = CachePolicy::At(dir.clone());
    // Pin the scheme explicitly: this test compares the two backends.
    options.scheme = SchemeId::Bfv;

    let cold = synthesize(&k.spec, &k.sketch, &options).expect("cold bfv hamming");
    assert!(!cold.cache_hit);

    // Same query, BGV backend: different key, so a miss — even though the
    // in-process memo and the disk tier both hold the BFV answer.
    let mut bgv_options = options.clone();
    bgv_options.scheme = SchemeId::Bgv;
    let bgv = synthesize(&k.spec, &k.sketch, &bgv_options).expect("cold bgv hamming");
    assert!(!bgv.cache_hit, "scheme is part of the cache key");

    // Both entries persist side by side, each naming its scheme in the
    // stored key text.
    let mut schemes_seen = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("cache dir").flatten() {
        let bytes = std::fs::read(entry.path()).expect("entry readable");
        let text = String::from_utf8_lossy(&bytes);
        for id in ["scheme bfv", "scheme bgv"] {
            if text.contains(id) {
                schemes_seen.push(id);
            }
        }
    }
    schemes_seen.sort_unstable();
    assert_eq!(
        schemes_seen,
        ["scheme bfv", "scheme bgv"],
        "each entry stores its scheme config line"
    );

    // And each scheme's own warm replay still hits.
    clear_synthesis_memo();
    assert!(
        synthesize(&k.spec, &k.sketch, &options)
            .expect("warm bfv")
            .cache_hit,
        "bfv entry survives alongside the bgv one"
    );
    clear_synthesis_memo();
    assert!(
        synthesize(&k.spec, &k.sketch, &bgv_options)
            .expect("warm bgv")
            .cache_hit,
        "bgv entry survives alongside the bfv one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every corruption mode — truncation, bit flips, a version bump, or raw
/// garbage — turns into a silent cold rebuild that repairs the entry.
/// Sobel-combine rebuilds in about a millisecond and takes the same
/// disk-tier paths as any kernel.
#[test]
fn corrupted_entries_rebuild_cold() {
    let _state = exclusive();
    let dir = temp_cache_dir("corrupt");
    let k = composite::sobel_combine(stencil::default_image().slots());
    let mut options = fast_synthesis_options();
    options.cache = CachePolicy::At(dir.clone());
    let cold = synthesize(&k.spec, &k.sketch, &options).expect("cold sobel-combine");

    let entry = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "synth"))
        .expect("cold run stored an entry");
    let pristine = std::fs::read(&entry).expect("entry readable");

    let corruptions: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", pristine[..pristine.len() / 2].to_vec()),
        ("empty", Vec::new()),
        ("flipped", {
            let mut b = pristine.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x55;
            b
        }),
        ("garbage", b"not a cache entry at all\xff\xfe".to_vec()),
    ];
    for (name, bytes) in corruptions {
        std::fs::write(&entry, &bytes).expect("rewrite entry");
        // Force each query down to the disk tier: with the memo in place
        // the corrupted file would never even be read.
        clear_synthesis_memo();
        let r = synthesize(&k.spec, &k.sketch, &options)
            .unwrap_or_else(|e| panic!("{name}: corrupted cache must not fail synthesis: {e}"));
        assert!(!r.cache_hit, "{name}: corrupted entry must miss");
        assert_eq!(
            r.program.to_string(),
            cold.program.to_string(),
            "{name}: rebuild must reproduce the canonical program"
        );
        // The rebuild wrote the entry back; confirm the *disk* entry (not
        // the memo) hits again.
        clear_synthesis_memo();
        let warm = synthesize(&k.spec, &k.sketch, &options).expect("repaired sobel-combine");
        assert!(warm.cache_hit, "{name}: rebuilt entry must hit");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `entry` with its program text replaced by `body`, every header line
/// (the program's byte length included) well-formed.
fn with_program_text(entry: &[u8], body: &str) -> Vec<u8> {
    let text = std::str::from_utf8(entry).expect("entries are UTF-8");
    let at = text
        .find("program-bytes ")
        .expect("entry has a program length");
    format!("{}program-bytes {}\n{body}", &text[..at], body.len()).into_bytes()
}

/// A well-framed entry whose program text is hostile (text the parser
/// used to panic on, or a program over other inputs than the spec's) is
/// a miss and a cold rebuild, never a crash.
#[test]
fn hostile_program_text_reads_as_a_miss() {
    let _state = exclusive();
    let dir = temp_cache_dir("hostile");
    let k = composite::sobel_combine(stencil::default_image().slots());
    let mut options = fast_synthesis_options();
    options.cache = CachePolicy::At(dir.clone());
    let cold = synthesize(&k.spec, &k.sketch, &options).expect("cold sobel-combine");
    let entry = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "synth"))
        .expect("cold run stored an entry");
    let pristine = std::fs::read(&entry).expect("entry readable");

    let deep = "(".repeat(200_000);
    for body in [
        "(kernel k ())",
        "(kernel k (inputs (ct 2)) ())",
        "(kernel \u{e0} (inputs (ct 2)) (return c0))",
        &deep,
        "(kernel k (inputs (ct 3) (pt 0)) (let c3 (mul-ct-ct c2 c2)) (return c3))",
    ] {
        std::fs::write(&entry, with_program_text(&pristine, body)).expect("rewrite entry");
        clear_synthesis_memo();
        let r = synthesize(&k.spec, &k.sketch, &options).expect("hostile entry is a miss");
        assert!(!r.cache_hit, "{body:.40}: hostile entry must miss");
        assert_eq!(r.program, cold.program, "{body:.40}: rebuild is canonical");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
