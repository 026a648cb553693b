//! Regenerates the **§7.4 sketch ablation**: local-rotate sketches (the
//! paper's contribution) vs explicit-rotation sketches (rotations as
//! free-standing components the solver must schedule).
//!
//! The paper reports box blur synthesizing in ~10 s (local) vs ~3 s
//! (explicit) but Gx at ~70 s (local) vs >30 min (explicit): explicit
//! rotations scale badly because the component count — and with it the
//! search depth — grows. Our enumerative engine shows the same shape at
//! smaller absolute times.
//!
//! Every run synthesizes cold (the synthesis cache is disabled), so the
//! times are synthesis times, not cache hits left by an earlier run.
//!
//! ```text
//! cargo run -p porcupine-bench --release --bin ablation_sketch [timeout_secs] [--jobs N]
//! ```

use porcupine::cegis::{synthesize, CachePolicy, SynthesisOptions};
use porcupine::sketch::Sketch;
use porcupine_bench::parse_jobs;
use porcupine_kernels::{stencil, PaperKernel};
use std::time::Duration;

fn run(name: &str, kernel: &PaperKernel, sketch: &Sketch, options: &SynthesisOptions) {
    match synthesize(&kernel.spec, sketch, options) {
        Ok(r) => println!(
            "{:<28} initial {:>8.2}s  total {:>8.2}s  instrs {:>2}  optimal {}",
            name,
            r.time_to_initial.as_secs_f64(),
            r.time_total.as_secs_f64(),
            r.program.len(),
            r.proved_optimal,
        ),
        Err(e) => println!("{name:<28} {e}"),
    }
}

fn main() {
    let (jobs, args) = parse_jobs(std::env::args().collect());
    let timeout = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(120u64);
    let options = SynthesisOptions {
        timeout: Duration::from_secs(timeout),
        parallelism: jobs,
        cache: CachePolicy::Disabled,
        ..SynthesisOptions::default()
    };
    println!("# §7.4 ablation: local-rotate vs explicit-rotation sketches (timeout {timeout}s)");
    let img = stencil::default_image();
    for k in [stencil::box_blur(img), stencil::gx(img)] {
        run(
            &format!("{} (local rotate)", k.name),
            &k,
            &k.sketch,
            &options,
        );
        // Explicit mode needs extra components for the materialized
        // rotations: box blur 2→4, gx 3→7.
        let extra = match k.name {
            "box-blur" => 2,
            _ => 4,
        };
        let mut explicit = k.sketch.clone().with_explicit_rotations();
        explicit.max_components += extra;
        run(
            &format!("{} (explicit rotate)", k.name),
            &k,
            &explicit,
            &options,
        );
    }
}
