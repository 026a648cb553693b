//! Quickstart: synthesize an encrypted dot-product kernel from its
//! plaintext specification, inspect the generated code, and run it under
//! real BFV encryption through a `porcupine::codegen::Session`.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bfv::params::{BfvContext, BfvParams};
use porcupine::cegis::{synthesize, SynthesisOptions};
use porcupine::codegen::{emit_seal_cpp, Session};
use porcupine::scheme::BfvScheme;
use porcupine_kernels::reduction;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The paper workload: dot product of 8 packed elements against a
    //    server-side plaintext weight vector (Figure 2).
    let kernel = reduction::dot_product(8);
    println!("== synthesizing `{}` ==", kernel.name);
    let result = synthesize(&kernel.spec, &kernel.sketch, &SynthesisOptions::default())?;
    println!(
        "found {} components in {:.2?} ({} examples, optimal: {})\n",
        result.components, result.time_total, result.examples_used, result.proved_optimal
    );
    println!("-- synthesized Quill kernel --\n{}", result.program);
    // `optimized` is the middle-end's lowering (relinearizations placed,
    // backend-legal IR) — what the runner and the C++ emitter consume.
    println!(
        "-- generated SEAL C++ --\n{}",
        emit_seal_cpp(&result.optimized)
    );

    // 2. Run it for real: encrypt a client vector, evaluate homomorphically,
    //    decrypt.
    let ctx = BfvContext::new(BfvParams::fast_4096())?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let session = Session::<BfvScheme>::new(&ctx, &[&result.optimized], &mut rng);

    let x = [3u64, 1, 4, 1, 5, 9, 2, 6];
    let w = [2u64, 7, 1, 8, 2, 8, 1, 8];
    let mut x_slots = vec![0u64; kernel.spec.n];
    let mut w_slots = vec![0u64; kernel.spec.n];
    x_slots[..8].copy_from_slice(&x);
    w_slots[..8].copy_from_slice(&w);

    let (decoded, budget) = session.run(&result.optimized, &[x_slots], &[w_slots], &mut rng);
    let expected: u64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
    println!(
        "encrypted dot product = {} (expected {})",
        decoded[0], expected
    );
    println!("remaining noise budget: {budget} bits");
    assert_eq!(decoded[0], expected);
    Ok(())
}
