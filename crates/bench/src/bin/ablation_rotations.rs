//! Regenerates the **§6.1 rotation-restriction ablation**: synthesis time
//! with the sliding-window / power-of-two rotation vocabularies vs the
//! unrestricted set (any amount in `1..n`).
//!
//! Every run synthesizes cold (the synthesis cache is disabled), so the
//! times are synthesis times, not cache hits left by an earlier run.
//!
//! ```text
//! cargo run -p porcupine-bench --release --bin ablation_rotations [timeout_secs] [--jobs N]
//! ```

use porcupine::cegis::{synthesize, CachePolicy, SynthesisOptions};
use porcupine::sketch::{RotationSet, Sketch};
use porcupine_bench::parse_jobs;
use porcupine_kernels::{reduction, stencil};
use std::time::Duration;

fn main() {
    let (jobs, args) = parse_jobs(std::env::args().collect());
    let timeout = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(120u64);
    let options = SynthesisOptions {
        timeout: Duration::from_secs(timeout),
        parallelism: jobs,
        cache: CachePolicy::Disabled,
        ..SynthesisOptions::default()
    };
    println!("# §6.1 ablation: restricted vs unrestricted rotation sets (timeout {timeout}s)");
    println!(
        "{:<34} {:>6} {:>12} {:>12} {:>8}",
        "kernel / rotation set", "|rots|", "initial(s)", "total(s)", "optimal"
    );

    let img = stencil::default_image();
    let cases: Vec<(&str, porcupine_kernels::PaperKernel, RotationSet)> = vec![
        (
            "box-blur / window",
            stencil::box_blur(img),
            RotationSet::Window {
                stride: 5,
                radius: 1,
            },
        ),
        (
            "box-blur / unrestricted",
            stencil::box_blur(img),
            RotationSet::All { n: img.slots() },
        ),
        (
            "dot-product / powers-of-two",
            reduction::dot_product(8),
            RotationSet::PowersOfTwo { extent: 8 },
        ),
        (
            "dot-product / unrestricted",
            reduction::dot_product(8),
            RotationSet::All { n: 16 },
        ),
    ];
    for (name, kernel, rots) in cases {
        let sketch = Sketch::new(
            kernel.sketch.ops.clone(),
            rots,
            kernel.sketch.max_components,
        );
        match synthesize(&kernel.spec, &sketch, &options) {
            Ok(r) => println!(
                "{:<34} {:>6} {:>12.2} {:>12.2} {:>8}",
                name,
                sketch.rotation_amounts.len(),
                r.time_to_initial.as_secs_f64(),
                r.time_total.as_secs_f64(),
                r.proved_optimal,
            ),
            Err(e) => println!("{name:<34} {e}"),
        }
    }
}
