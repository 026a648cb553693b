//! Encrypted image processing: synthesize the Gx/Gy gradient kernels for a
//! larger 6×6 image (stride 8 — Porcupine re-synthesizes for any layout),
//! compose the Sobel operator, and run it on an encrypted test image.
//!
//! ```text
//! cargo run --release --example image_pipeline
//! ```

use bfv::params::{BfvContext, BfvParams};
use porcupine::cegis::{synthesize, SynthesisOptions};
use porcupine::codegen::Session;
use porcupine::layout::PaddedImage;
use porcupine::scheme::BfvScheme;
use porcupine_kernels::{composite, stencil};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 6×6 interior with 1-pixel zero padding: 8×8 = 64 slots, stride 8.
    let img = PaddedImage::new(6, 6, 1);
    let options = SynthesisOptions::default();

    println!(
        "== synthesizing gradient kernels for stride {} ==",
        img.stride()
    );
    let gx = synthesize(&stencil::gx(img).spec, &stencil::gx(img).sketch, &options)?;
    let gy = synthesize(&stencil::gy(img).spec, &stencil::gy(img).sketch, &options)?;
    let combine_k = composite::sobel_combine(img.slots());
    let combine = synthesize(&combine_k.spec, &combine_k.sketch, &options)?;
    println!(
        "gx: {} instrs, gy: {} instrs, combine: {} instrs",
        gx.program.len(),
        gy.program.len(),
        combine.program.len()
    );
    let sobel_raw = composite::sobel_from(&gx.program, &gy.program, &combine.program);
    // Lower through the middle-end: global CSE + rotation folding + lazy
    // relinearization make the composed pipeline both legal and cheaper
    // than the eager -O0 lowering.
    let (sobel, report) = porcupine::opt::optimize(&sobel_raw, porcupine::opt::OptLevel::O2);
    println!(
        "composed sobel: {} instructions at -O2 ({} relin, {} rot; {report}), mult depth {}\n",
        sobel.len(),
        sobel.relin_count(),
        sobel.rot_count(),
        sobel.mult_depth()
    );

    // A vertical bright bar on dark background.
    #[rustfmt::skip]
    let pixels: Vec<u64> = vec![
        0, 0, 9, 9, 0, 0,
        0, 0, 9, 9, 0, 0,
        0, 0, 9, 9, 0, 0,
        0, 0, 9, 9, 0, 0,
        0, 0, 9, 9, 0, 0,
        0, 0, 9, 9, 0, 0,
    ];
    let slots = img.pack(&pixels);

    let ctx = BfvContext::new(BfvParams::fast_4096())?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let session = Session::<BfvScheme>::new(&ctx, &[&sobel], &mut rng);
    let (decoded, budget) = session.run(&sobel, &[slots], &[], &mut rng);
    let edges = img.unpack(&decoded);

    println!("encrypted Sobel edge magnitude (squared):");
    for r in 0..img.rows {
        let row: Vec<String> = (0..img.cols)
            .map(|c| format!("{:>5}", edges[r * img.cols + c]))
            .collect();
        println!("  {}", row.join(" "));
    }
    println!("\nnoise budget after pipeline: {budget} bits");
    // Edges fire on the bar boundaries (columns 1–2 and 3–4), not inside.
    assert!(edges[6 + 1] > 0, "edge expected at the bar boundary");
    Ok(())
}
