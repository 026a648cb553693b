//! # perfbench — the layered performance benchmark
//!
//! One harness measures the compiler end to end — specification (or
//! hand-written program) in, decrypted and checked slots out — and each
//! layer underneath it: ring (NTT, key switching, base conversion) → scheme
//! op → kernel runner → compiler (synthesis, cache, `-O2`, parameter
//! selection). See `README.md` next to this crate for every workload and
//! metric and why it is there.
//!
//! | mode | command |
//! |---|---|
//! | one run (last stdout line: result JSON) | `perfbench --workload <name> --seed <n> --seconds <s> --trace <0\|1>` |
//! | record a reference series | `perfbench --record <file>` |
//! | judge a fresh series against it | `perfbench --compare <file>` |
//!
//! The paper-table reproductions (`table2_instructions`, `fig4_speedup`,
//! `he_ops`, …) stay in the `porcupine-bench` crate.

pub mod args;
pub mod backend;
pub mod compare;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workload;

use args::RunArgs;
use json::Value;
use metrics::{end_to_end, per_layer};
use std::path::{Path, PathBuf};

/// Where runs keep scratch files and traces, relative to the working
/// directory (the checkout the benchmark runs in).
pub const OUT_DIR: &str = ".perfbench";

/// The Chrome trace a traced run writes.
pub fn trace_path(args: &RunArgs) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ))
}

/// Runs one workload and prints its outcome: the per-kernel table on
/// stderr, then on stdout a `tags: {…}` line and, last, the result object
/// `{"correct", "attempted", "failed", "metrics"}`.
///
/// # Panics
///
/// Panics if the scratch directory or the trace cannot be written.
pub fn run_once(args: &RunArgs) {
    let scratch = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");
    let out = workload::run(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    eprint!("{}", out.table);
    if args.trace {
        let path = trace_path(args);
        std::fs::write(&path, format!("{}\n", out.tracer.chrome_json(&out.tags)))
            .expect("write the trace");
        eprintln!(
            "trace: {} (open in https://ui.perfetto.dev)",
            path.display()
        );
    }
    let decls = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    println!("tags: {}", Value::Obj(out.tags));
    let result = Value::obj([
        ("correct", Value::Bool(out.failed == 0)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", out.metrics.render(&decls)),
    ]);
    println!("{result}");
}
