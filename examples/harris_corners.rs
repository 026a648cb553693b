//! Encrypted Harris corner detection — the paper's largest multi-step
//! application (§7.2): gradients, structure-tensor blurs, and the corner
//! response, all under encryption. The client decrypts the response map
//! and applies the threshold (the branch HE cannot evaluate, §7.1).
//!
//! ```text
//! cargo run --release --example harris_corners
//! ```

use bfv::params::{BfvContext, BfvParams};
use porcupine::cegis::{synthesize, SynthesisOptions};
use porcupine::codegen::Session;
use porcupine::scheme::BfvScheme;
use porcupine_kernels::{composite, stencil};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let img = stencil::default_image(); // 3×3 interior, 5×5 packed
    let options = SynthesisOptions::default();

    println!("== synthesizing the five Harris stages ==");
    let stages = composite::HarrisStages {
        gx: synthesize(&stencil::gx(img).spec, &stencil::gx(img).sketch, &options)?.program,
        gy: synthesize(&stencil::gy(img).spec, &stencil::gy(img).sketch, &options)?.program,
        blur: synthesize(
            &stencil::box_blur(img).spec,
            &stencil::box_blur(img).sketch,
            &options,
        )?
        .program,
        det: synthesize(
            &composite::harris_det(img.slots()).spec,
            &composite::harris_det(img.slots()).sketch,
            &options,
        )?
        .program,
        trace: synthesize(
            &composite::harris_trace(img.slots()).spec,
            &composite::harris_trace(img.slots()).sketch,
            &options,
        )?
        .program,
    };
    let harris_raw = composite::harris_from(&stages);
    let baseline = composite::harris_baseline(img);
    // Lower through the middle-end before touching real ciphertexts.
    let (harris, report) = porcupine::opt::optimize(&harris_raw, porcupine::opt::OptLevel::O2);
    println!(
        "composed harris: {} instructions at -O2 (baseline {}; {report}), mult depth {}\n",
        harris.len(),
        baseline.len(),
        harris.mult_depth()
    );

    // A bright corner patch in the top-left of the interior.
    let pixels = vec![9, 9, 0, 9, 9, 0, 0, 0, 0];
    let slots = img.pack(&pixels);

    // Harris needs multiplicative depth 3; use the 128-bit secure preset.
    let ctx = BfvContext::new(BfvParams::secure_128())?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let session = Session::<BfvScheme>::new(&ctx, &[&harris], &mut rng);
    println!(
        "running encrypted Harris pipeline ({} HE instructions)…",
        harris.len()
    );
    let (decoded, budget) = session.run(&harris, std::slice::from_ref(&slots), &[], &mut rng);
    println!("noise budget after pipeline: {budget} bits");
    assert!(budget > 0, "parameters must survive the whole pipeline");

    // Client-side: compare the response at the corner against the spec.
    let spec = composite::harris_spec(img);
    let expected = spec.eval_concrete(std::slice::from_ref(&slots), &[]);
    let center = img.index(1, 1);
    println!(
        "response at interior centre: {} (plaintext reference: {})",
        decoded[center], expected[center]
    );
    assert_eq!(decoded[center], expected[center]);
    println!("encrypted Harris response matches the plaintext reference ✓");
    Ok(())
}
