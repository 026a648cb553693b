//! Private model evaluation: a client sends encrypted features; the server
//! evaluates linear and polynomial regression models without seeing the
//! data — using Porcupine-synthesized kernels, including the factored
//! quadratic `(a·x + b)·x + c` the synthesizer discovers (§7.2).
//!
//! ```text
//! cargo run --release --example private_ml
//! ```

use bfv::params::{BfvContext, BfvParams};
use porcupine::cegis::{synthesize, SynthesisOptions};
use porcupine::codegen::Session;
use porcupine::scheme::BfvScheme;
use porcupine_kernels::pointwise;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let batch = 8;
    let options = SynthesisOptions::default();

    let lin_k = pointwise::linear_regression(batch);
    let lin = synthesize(&lin_k.spec, &lin_k.sketch, &options)?;
    let poly_k = pointwise::polynomial_regression(batch);
    let poly = synthesize(&poly_k.spec, &poly_k.sketch, &options)?;
    println!(
        "linear model: {} instrs | quadratic model: {} instrs (baseline {})",
        lin.program.len(),
        poly.program.len(),
        poly_k.baseline.len()
    );
    println!(
        "-- synthesized quadratic (note the factored form) --\n{}",
        poly.program
    );

    let ctx = BfvContext::new(BfvParams::fast_4096())?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let session = Session::<BfvScheme>::new(&ctx, &[&lin.optimized, &poly.optimized], &mut rng);
    // Server: model parameters stay in plaintext, one per slot vector.
    let weights =
        |params: &[u64]| -> Vec<Vec<u64>> { params.iter().map(|&v| vec![v; batch]).collect() };

    // Client: a batch of encrypted feature pairs.
    let features = [
        vec![3u64, 7, 2, 9, 4, 1, 8, 5],
        vec![10u64, 20, 5, 12, 7, 30, 2, 9],
    ];
    let (x1, x2) = (&features[0], &features[1]);
    let theta = [3u64, 5, 40]; // y = 3·x1 + 5·x2 + 40
    let (y, _) = session.run(&lin.optimized, &features, &weights(&theta), &mut rng);
    println!("\nlinear predictions:    {:?}", &y[..batch]);
    for i in 0..batch {
        assert_eq!(y[i], 3 * x1[i] + 5 * x2[i] + 40);
    }

    // Quadratic model y = 2·x² + 7·x + 11 on the first feature.
    let abc = [2u64, 7, 11];
    let (y, _) = session.run(&poly.optimized, &features[..1], &weights(&abc), &mut rng);
    println!("quadratic predictions: {:?}", &y[..batch]);
    for i in 0..batch {
        assert_eq!(y[i], 2 * x1[i] * x1[i] + 7 * x1[i] + 11);
    }
    println!("\nall predictions verified against plaintext evaluation ✓");
    Ok(())
}
