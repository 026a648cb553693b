//! Regenerates **Table 3**: synthesis time, example count, and
//! initial/final cost for each kernel — and measures the parallel-search
//! speedup plus the persistent synthesis cache's cold/warm behaviour by
//! synthesizing every kernel three times: jobs = 1 against a fresh cache
//! directory (the **cold** run), jobs = N with the cache disabled (the
//! parallel leg), and jobs = 1 again against the now-warm cache (the
//! **warm** run).
//!
//! ```text
//! cargo run -p porcupine-bench --release --bin table3_synthesis [timeout_secs] [kernel-name] [--jobs N]
//! ```
//!
//! `--jobs` defaults to the machine's available parallelism. Two summaries
//! are written to the current directory — run from the repo root to land
//! them there:
//!
//! * `BENCH_synthesis.json` — per-kernel wall-clock at both thread counts
//!   plus the parallel speedup (unchanged from before).
//! * `BENCH_synth_scale.json` — per-kernel cold vs warm wall-clock, the
//!   phase-1 strategy the cold run used, and the warm-over-cold speedup.
//!   The warm run is **asserted** to be a cache hit that performs zero
//!   search invocations (via [`porcupine::search_invocations`]) and to
//!   return the byte-identical program, so the speedup column measures
//!   the cache, not a lucky fast search.
//!
//! For every kernel whose optimization completes at both thread counts,
//! the binary asserts the two runs returned bit-identical programs (the
//! determinism contract); kernels that hit the per-kernel timeout carry
//! best-so-far programs, which are legitimately timing-dependent and are
//! not compared.
//!
//! Paper columns for reference (median of 3 runs on their machine, with
//! Rosette/Boolector): the absolute times differ from ours by construction —
//! we search enumeratively instead of bit-blasting to SMT — but the
//! qualitative ordering (Roberts cross slowest; most kernels in seconds)
//! should reproduce.

use porcupine::cegis::{synthesize, CachePolicy, SynthesisOptions};
use porcupine::search_invocations;
use porcupine_bench::parse_jobs;
use porcupine_kernels::{all_direct, composite, stencil, PaperKernel};
use quill::cost::LatencyModel;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

struct Row {
    name: String,
    secs_seq: f64,
    secs_par: f64,
    speedup: f64,
}

struct CacheRow {
    name: String,
    strategy: String,
    cold_secs: f64,
    /// Disk-tier replay: read + parse + mandatory re-verification (what a
    /// fresh process pays).
    warm_disk_secs: f64,
    /// In-process replay: the memo tier answering a repeated query.
    warm_secs: f64,
    warm_speedup: f64,
}

fn main() {
    let (jobs, args) = parse_jobs(std::env::args().collect());
    let timeout = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(600u64);
    let filter = args.get(2).cloned();

    let mut kernels: Vec<PaperKernel> = all_direct();
    let n = stencil::default_image().slots();
    kernels.push(composite::sobel_combine(n));
    kernels.push(composite::harris_det(n));
    kernels.push(composite::harris_trace(n));

    // A fresh cache directory per bench invocation: the cold timings must
    // never be contaminated by entries a previous run left behind.
    let cache_dir =
        std::env::temp_dir().join(format!("porcupine-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    println!(
        "# Table 3: synthesis time and examples (timeout {timeout}s per kernel, jobs 1 vs {jobs})"
    );
    println!(
        "{:<24} {:>4} {:>9} {:>12} {:>12} {:>12} {:>8} {:>12} {:>8} {:>13} {:>12} {:>8} {:>7} {:>10}",
        "kernel",
        "L",
        "examples",
        "initial(s)",
        "seq(s)",
        "par(s)",
        "speedup",
        "warm(s)",
        "cache-x",
        "initial-cost",
        "final-cost",
        "optimal",
        "instrs",
        "strategy"
    );
    let mut rows: Vec<Row> = Vec::new();
    let mut cache_rows: Vec<CacheRow> = Vec::new();
    for k in kernels {
        if let Some(f) = &filter {
            if k.name != f {
                continue;
            }
        }
        let options = |parallelism: NonZeroUsize, cache: CachePolicy| SynthesisOptions {
            timeout: Duration::from_secs(timeout),
            optimize: true,
            latency: LatencyModel::profiled_default(),
            seed: 42,
            parallelism,
            cache,
            ..SynthesisOptions::default()
        };
        // Cold run: jobs = 1 against the fresh cache directory. The
        // options are built once and reused for the warm replays — the
        // default-options constructor reads environment variables, which
        // would otherwise dominate a microsecond-scale replay timing.
        let seq_options = options(NonZeroUsize::MIN, CachePolicy::At(cache_dir.clone()));
        let t0 = Instant::now();
        let seq = synthesize(&k.spec, &k.sketch, &seq_options);
        let secs_seq = t0.elapsed().as_secs_f64();
        // Parallel leg: cache disabled so the search actually runs.
        let t1 = Instant::now();
        let par = synthesize(&k.spec, &k.sketch, &options(jobs, CachePolicy::Disabled));
        let secs_par = t1.elapsed().as_secs_f64();
        match (seq, par) {
            (Ok(seq), Ok(par)) => {
                assert!(!seq.cache_hit, "{}: fresh cache dir must miss", k.name);
                // The determinism contract holds for completed searches; a
                // run that hit the deadline mid-optimization keeps its best
                // program so far, which is legitimately timing-dependent.
                if seq.proved_optimal && par.proved_optimal {
                    assert_eq!(
                        seq.program, par.program,
                        "{}: determinism contract violated (jobs 1 vs {jobs})",
                        k.name
                    );
                    assert_eq!(
                        seq.final_cost.to_bits(),
                        par.final_cost.to_bits(),
                        "{}",
                        k.name
                    );
                }
                // Warm run: the identical query against the now-populated
                // cache. Must hit, must not search, must return the same
                // bytes — otherwise the "speedup" would be meaningless.
                // Only proved-optimal answers are cached (timed-out
                // partials are timing-dependent), so a kernel that hit the
                // deadline gets no warm row.
                // Warm replays, both tiers. The memo is cleared first so
                // re-query #1 measures the disk tier (read + parse +
                // mandatory re-verification — what a fresh process pays);
                // re-queries #2..5 measure the in-process memo, and the
                // headline warm time is the minimum over all five (the
                // steady-state cost of asking the same question again).
                // Every replay is asserted to be a hit with zero search
                // invocations and the byte-identical program.
                let (secs_warm_disk, secs_warm, warm_speedup) = if seq.proved_optimal {
                    porcupine::clear_synthesis_memo();
                    let mut secs_warm = f64::MAX;
                    let mut secs_warm_disk = f64::NAN;
                    for i in 0..5 {
                        let invocations_before = search_invocations();
                        let t2 = Instant::now();
                        let warm =
                            synthesize(&k.spec, &k.sketch, &seq_options).expect("warm re-query");
                        let elapsed = t2.elapsed().as_secs_f64();
                        if i == 0 {
                            secs_warm_disk = elapsed;
                        }
                        secs_warm = secs_warm.min(elapsed);
                        assert!(warm.cache_hit, "{}: warm re-query must hit", k.name);
                        assert_eq!(
                            search_invocations() - invocations_before,
                            0,
                            "{}: a cache hit must skip the search entirely",
                            k.name
                        );
                        assert_eq!(
                            warm.program, seq.program,
                            "{}: warm program must be byte-identical to cold",
                            k.name
                        );
                    }
                    (secs_warm_disk, secs_warm, secs_seq / secs_warm.max(1e-9))
                } else {
                    (f64::NAN, f64::NAN, f64::NAN)
                };
                let speedup = secs_seq / secs_par.max(1e-9);
                println!(
                    "{:<24} {:>4} {:>9} {:>12.2} {:>12.2} {:>12.2} {:>7.2}x {:>12.4} {:>7.0}x {:>13.0} {:>12.0} {:>8} {:>7} {:>10}",
                    k.name,
                    seq.components,
                    seq.examples_used,
                    seq.time_to_initial.as_secs_f64(),
                    secs_seq,
                    secs_par,
                    speedup,
                    secs_warm,
                    warm_speedup,
                    seq.initial_cost,
                    seq.final_cost,
                    seq.proved_optimal,
                    seq.program.len(),
                    seq.strategy_used,
                );
                rows.push(Row {
                    name: k.name.to_string(),
                    secs_seq,
                    secs_par,
                    speedup,
                });
                if seq.proved_optimal {
                    cache_rows.push(CacheRow {
                        name: k.name.to_string(),
                        strategy: seq.strategy_used.to_string(),
                        cold_secs: secs_seq,
                        warm_disk_secs: secs_warm_disk,
                        warm_secs: secs_warm,
                        warm_speedup,
                    });
                }
            }
            (Err(e), _) | (_, Err(e)) => println!("{:<24} failed: {e}", k.name),
        }
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    if !rows.is_empty() {
        let best = rows
            .iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .unwrap();
        let geomean = (rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / rows.len() as f64).exp();
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let path = "BENCH_synthesis.json";
        std::fs::write(
            path,
            summary_json(jobs.get(), available, &rows, best, geomean),
        )
        .expect("write BENCH_synthesis.json");
        if available > 1 {
            println!(
                "\nwrote {path}: best speedup {:.2}x ({}) at {jobs} jobs, geomean {:.2}x",
                best.speedup, best.name, geomean,
            );
        } else {
            // On a single-core host the jobs=1 and jobs=N runs time-share
            // one CPU; a "speedup" headline would only report scheduler
            // noise. The JSON still records the raw numbers plus
            // available_parallelism so a reader can tell why.
            println!(
                "\nwrote {path} (single-core host: parallel-speedup headline suppressed; \
                 re-run on a multi-core machine to measure the search's scaling)"
            );
        }

        if !cache_rows.is_empty() {
            let scale_path = "BENCH_synth_scale.json";
            std::fs::write(scale_path, scale_json(available, &cache_rows))
                .expect("write scale json");
            let min_warm = cache_rows
                .iter()
                .min_by(|a, b| a.warm_speedup.total_cmp(&b.warm_speedup))
                .unwrap();
            let max_warm = cache_rows
                .iter()
                .map(|r| r.warm_speedup)
                .fold(f64::MIN, f64::max);
            println!(
                "wrote {scale_path}: warm-cache speedup {:.0}x..{:.0}x (min on {})",
                min_warm.warm_speedup, max_warm, min_warm.name,
            );
        }
    }
}

/// Hand-rolled JSON (the workspace is offline; no serde). Kernel names are
/// ASCII identifiers, so no string escaping is needed.
fn summary_json(jobs: usize, available: usize, rows: &[Row], best: &Row, geomean: f64) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"jobs\": {jobs},\n  \"available_parallelism\": {available},\n  \"single_core_host\": {},\n",
        available == 1
    ));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"seq_secs\": {:.4}, \"par_secs\": {:.4}, \"speedup\": {:.4}}}{}\n",
            r.name,
            r.secs_seq,
            r.secs_par,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"max_speedup\": {:.4},\n  \"max_speedup_kernel\": \"{}\",\n  \"geomean_speedup\": {:.4}\n}}\n",
        best.speedup, best.name, geomean
    ));
    s
}

/// Cold vs warm summary for `BENCH_synth_scale.json`. Every warm run in
/// `rows` already passed the cache-hit / zero-search-invocation /
/// byte-identity asserts, so `warm_verified_hit` is `true` by
/// construction — it is recorded so a reader of the JSON alone knows the
/// speedup is a no-search replay, not a faster search. `warm_disk_secs`
/// is the disk tier (what a fresh process pays: read + parse +
/// re-verification); `warm_secs` is the steady in-process replay.
fn scale_json(available: usize, rows: &[CacheRow]) -> String {
    let min = rows.iter().map(|r| r.warm_speedup).fold(f64::MAX, f64::min);
    let geomean = (rows.iter().map(|r| r.warm_speedup.ln()).sum::<f64>() / rows.len() as f64).exp();
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"available_parallelism\": {available},\n  \"warm_verified_hit\": true,\n"
    ));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"strategy\": \"{}\", \"cold_secs\": {:.4}, \"warm_disk_secs\": {:.6}, \"warm_secs\": {:.6}, \"warm_speedup\": {:.1}}}{}\n",
            r.name,
            r.strategy,
            r.cold_secs,
            r.warm_disk_secs,
            r.warm_secs,
            r.warm_speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"min_warm_speedup\": {min:.1},\n  \"geomean_warm_speedup\": {geomean:.1}\n}}\n"
    ));
    s
}
