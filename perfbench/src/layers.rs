//! The layer microbenchmarks a traced run adds to its workload, identical in
//! every workload so each per-layer metric means the same thing everywhere:
//!
//! * **ring** (`rlwe-ring`): one-row forward/inverse NTTs, the key-switch
//!   decompose (`hoist_decompose`), accumulate (`key_switch_hoisted_into`
//!   with a rotation permutation) and one-shot (`key_switch_into`) phases,
//!   and BFV's Q→B base conversion;
//! * **op** (`porcupine::scheme::Scheme` over `bfv` and `bgv`): every
//!   evaluator operation the runner calls, plus encode, encrypt, decrypt;
//! * **compiler** (`porcupine::cegis` and `porcupine::cache`): a cold
//!   synthesis of each fast paper kernel, then the same query served from
//!   the disk tier and from the in-process memo.
//!
//! Every probe runs once per round and rounds repeat until the time is up,
//! so — like the workloads — a slow phase of the host is spread over all of
//! them. Each timing is the median of its samples, each divided by the host
//! slowdown over its round (see [`crate::speed`]).

use crate::backend::Backend;
use crate::metrics::{Measured, OPS, SYNTH_KERNELS};
use crate::speed::HostSpeed;
use crate::stats::{geomean, median};
use crate::workload::{synth_kernel, synth_options, KEY_SEED};
use porcupine::cegis::synthesize;
use porcupine::scheme::{BfvScheme, BgvScheme, Scheme};
use quill::cost::LatencyModel;
use quill::scheme::SchemeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlwe_ring::keyswitch::{
    hoist_decompose, key_switch_hoisted_into, key_switch_into, key_switch_key,
    HoistedDecomposition, KeySwitchKey,
};
use rlwe_ring::params::RlweParams;
use rlwe_ring::poly::{RingContext, RnsPoly};
use rlwe_ring::pool::ScratchPool;
use rlwe_ring::rns::RnsBaseConverter;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Measured op-layer latencies at one configuration, as a cost model.
#[derive(Debug, Clone)]
pub struct OpModel {
    /// The scheme measured.
    pub scheme: SchemeId,
    /// Ring degree.
    pub n: usize,
    /// Ciphertext primes.
    pub primes: usize,
    /// The op timings (µs) in [`LatencyModel`] form.
    pub model: LatencyModel,
}

/// What the layer microbenchmarks produced.
#[derive(Debug)]
pub struct LayerRun {
    /// `ring.*`, `op.*` (but `op.pool_fresh`), `synth.*` and `cache.*`.
    pub metrics: Measured,
    /// The op layer as cost models, for the kernel layer's replay ratio.
    pub models: Vec<OpModel>,
    /// Correctness checks made before and during timing.
    pub checks: u64,
    /// Checks that failed.
    pub failed: u64,
}

/// The replay cost model for a kernel at `(scheme, n, primes)`: the op
/// timings measured at that configuration, or — for a configuration the op
/// layer does not measure — those of the scheme's nearest measured
/// configuration rescaled the way [`LatencyModel::scaled_to`] scales.
///
/// # Panics
///
/// Panics if the op layer measured no configuration of `scheme`.
pub fn replay_model(models: &[OpModel], scheme: SchemeId, n: usize, primes: usize) -> LatencyModel {
    let distance = |m: &OpModel| {
        let dn = (n as f64 / m.n as f64).log2().abs();
        (dn, m.primes.abs_diff(primes))
    };
    let nearest = models
        .iter()
        .filter(|m| m.scheme == scheme)
        .min_by(|a, b| {
            distance(a)
                .partial_cmp(&distance(b))
                .expect("finite distances")
        })
        .unwrap_or_else(|| panic!("no op-layer measurement of {scheme}"));
    let to = LatencyModel::uniform().scaled_to(n, primes);
    let from = LatencyModel::uniform().scaled_to(nearest.n, nearest.primes);
    let m = &nearest.model;
    LatencyModel {
        add_ct_ct: m.add_ct_ct * to.add_ct_ct / from.add_ct_ct,
        sub_ct_ct: m.sub_ct_ct * to.sub_ct_ct / from.sub_ct_ct,
        mul_ct_ct: m.mul_ct_ct * to.mul_ct_ct / from.mul_ct_ct,
        add_ct_pt: m.add_ct_pt * to.add_ct_pt / from.add_ct_pt,
        sub_ct_pt: m.sub_ct_pt * to.sub_ct_pt / from.sub_ct_pt,
        mul_ct_pt: m.mul_ct_pt * to.mul_ct_pt / from.mul_ct_pt,
        rot_ct: m.rot_ct * to.rot_ct / from.rot_ct,
        relin_ct: m.relin_ct * to.relin_ct / from.relin_ct,
        rot_hoist_setup: m.rot_hoist_setup * to.rot_hoist_setup / from.rot_hoist_setup,
        rot_hoisted: m.rot_hoisted * to.rot_hoisted / from.rot_hoisted,
    }
}

/// A group of probes timed one call at a time.
trait Probes {
    /// Metric name of probe `i`.
    fn name(&self, i: usize) -> String;
    /// How many probes the group has.
    fn count(&self) -> usize;
    /// Runs probe `i` once.
    fn run(&mut self, i: usize);
}

// ------------------------------------------------------------- ring --

/// Ring-layer state at one configuration.
struct RingProbes<'c> {
    label: &'static str,
    ring: &'c RingContext,
    pool: ScratchPool,
    row: Vec<u64>,
    d: RnsPoly,
    ksk: KeySwitchKey,
    hoisted: HoistedDecomposition,
    perm: Vec<u32>,
    acc_b: RnsPoly,
    acc_a: RnsPoly,
    base_conv: Option<BaseConv<'c>>,
}

/// BFV's Q → B converter with a coefficient-form source and an output.
struct BaseConv<'c> {
    conv: &'c RnsBaseConverter,
    src: Vec<Vec<u64>>,
    out: Vec<Vec<u64>>,
}

const RING_PROBES: [&str; 6] = [
    "ntt_fwd_us",
    "ntt_inv_us",
    "ks_decompose_us",
    "ks_accumulate_us",
    "ks_oneshot_us",
    "base_conv_us",
];

impl<'c> RingProbes<'c> {
    fn new(
        label: &'static str,
        ring: &'c RingContext,
        base_conv: Option<&'c RnsBaseConverter>,
        rng: &mut StdRng,
    ) -> Self {
        let pool = ScratchPool::new();
        let p0 = ring.primes()[0];
        let row = (0..ring.degree()).map(|_| rng.gen_range(0..p0)).collect();
        let d = ring.sample_uniform(rng);
        let s = ring.to_eval(&ring.sample_ternary(rng));
        let target = ring.to_eval(&ring.sample_ternary(rng));
        let ksk = key_switch_key(ring, &s, &target, None, rng);
        let hoisted = hoist_decompose(ring, &pool, &d);
        let g = rlwe_ring::batch::galois_element_for_rotation(ring.degree(), 1);
        let base_conv = base_conv.map(|conv| BaseConv {
            conv,
            src: ring.to_coeff(&d).residues,
            out: vec![vec![0u64; ring.degree()]; conv.targets().len()],
        });
        RingProbes {
            label,
            ring,
            pool,
            row,
            d,
            ksk,
            hoisted,
            perm: ring.galois_eval_permutation(g),
            acc_b: ring.zero_eval(),
            acc_a: ring.zero_eval(),
            base_conv,
        }
    }
}

impl Probes for RingProbes<'_> {
    fn name(&self, i: usize) -> String {
        format!("ring.{}.{}", RING_PROBES[i], self.label)
    }
    fn count(&self) -> usize {
        RING_PROBES.len() - usize::from(self.base_conv.is_none())
    }
    fn run(&mut self, i: usize) {
        let ring = self.ring;
        match RING_PROBES[i] {
            "ntt_fwd_us" => ring.ntt(0).forward(black_box(&mut self.row)),
            "ntt_inv_us" => ring.ntt(0).inverse(black_box(&mut self.row)),
            "ks_decompose_us" => {
                hoist_decompose(ring, &self.pool, black_box(&self.d)).recycle(&self.pool)
            }
            "ks_accumulate_us" => key_switch_hoisted_into(
                ring,
                &self.pool,
                &self.hoisted,
                Some(&self.perm),
                &self.ksk,
                black_box(&mut self.acc_b),
                &mut self.acc_a,
            ),
            "ks_oneshot_us" => key_switch_into(
                ring,
                &self.pool,
                black_box(&self.d),
                &self.ksk,
                &mut self.acc_b,
                &mut self.acc_a,
            ),
            "base_conv_us" => {
                let b = self.base_conv.as_mut().expect("counted only when present");
                b.conv
                    .convert_centered_into(black_box(&b.src), &self.pool, &mut b.out);
            }
            other => unreachable!("unknown ring probe {other}"),
        }
    }
}

// --------------------------------------------------------------- op --

/// Op-layer state at one configuration: keys, two ciphertexts, a size-3
/// product, a plaintext and a hoisted decomposition, plus accumulators the
/// in-place ops mutate (their values stop mattering once timing starts).
struct OpProbes<'c, B: Backend> {
    prefix: String,
    ev: B::Evaluator<'c>,
    enc: B::Encryptor<'c>,
    dec: B::Decryptor<'c>,
    rk: B::RelinKey,
    gk: B::GaloisKeys,
    a: B::Ciphertext,
    b: B::Ciphertext,
    prod3: B::Ciphertext,
    acc: B::Ciphertext,
    acc_rot: B::Ciphertext,
    pt: B::Plaintext,
    ept: B::EvalPlaintext,
    hoisted: B::Hoisted,
    rng: StdRng,
}

impl<'c, B: Backend> OpProbes<'c, B> {
    /// Builds the state and checks that multiply + relinearize, rotation
    /// and hoisted rotation decrypt to the right slots; returns the number
    /// of failed checks alongside.
    fn new(prefix: String, ctx: &'c B::Context, rng: &mut StdRng) -> (Self, u64) {
        let kg = B::keygen(ctx, rng);
        let enc = B::encryptor(ctx, &kg, rng);
        let dec = B::decryptor(ctx, &kg);
        let rk = B::relin_key(&kg, rng);
        let gk = B::galois_keys(&kg, &[1], false, rng);
        let ev = B::evaluator(ctx);
        let coder = B::encoder(ctx);
        let t = B::params(ctx).plain_modulus;
        let half = B::slot_count(&coder) / 2;
        let data: Vec<u64> = (0..B::slot_count(&coder))
            .map(|_| rng.gen_range(0..t))
            .collect();
        let pt = B::encode(&coder, &data);
        let a = B::encrypt(&enc, &pt, rng);
        let b = B::encrypt(&enc, &pt, rng);
        let prod3 = B::multiply(&ev, &a, &b);
        let hoisted = B::hoist(&ev, &a).expect("both backends hoist rotations");

        let decode = |ct: &B::Ciphertext| B::decode(&coder, &B::decrypt(&dec, ct));
        let squared = decode(&B::relinearize(&ev, &prod3, &rk));
        let mut rotated = a.clone();
        B::rotate_rows_assign(&ev, &mut rotated, 1, &gk);
        let rotated = decode(&rotated);
        let hoist_rotated = decode(&B::rotate_hoisted(&ev, &a, &hoisted, 1, &gk));
        let mut failed = 0;
        for i in 0..64 {
            let want_rot = data[(i + 1) % half];
            failed += u64::from(squared[i] != data[i] * data[i] % t);
            failed += u64::from(rotated[i] != want_rot || hoist_rotated[i] != want_rot);
        }
        let probes = OpProbes {
            prefix,
            ept: B::preencode(&ev, &pt),
            acc: a.clone(),
            acc_rot: a.clone(),
            ev,
            enc,
            dec,
            rk,
            gk,
            a,
            b,
            prod3,
            pt,
            hoisted,
            rng: StdRng::seed_from_u64(rng.gen()),
        };
        (probes, failed.min(1))
    }
}

impl<B: Backend> Probes for OpProbes<'_, B> {
    fn name(&self, i: usize) -> String {
        format!("{}.{}_us", self.prefix, OPS[i])
    }
    fn count(&self) -> usize {
        OPS.len()
    }
    fn run(&mut self, i: usize) {
        let ev = &self.ev;
        match OPS[i] {
            "add_ct_ct" => B::add_assign(ev, black_box(&mut self.acc), &self.b),
            "sub_ct_ct" => B::sub_assign(ev, black_box(&mut self.acc), &self.b),
            "add_ct_pt" => B::add_plain_assign(ev, black_box(&mut self.acc), &self.ept),
            "sub_ct_pt" => B::sub_plain_assign(ev, black_box(&mut self.acc), &self.ept),
            "mul_ct_pt" => B::mul_plain_assign(ev, black_box(&mut self.acc), &self.ept),
            "rot_ct" => B::rotate_rows_assign(ev, black_box(&mut self.acc_rot), 1, &self.gk),
            "rot_hoist_setup" => {
                let h = B::hoist(ev, black_box(&self.a)).expect("both backends hoist");
                B::recycle_hoisted(ev, h);
            }
            "rot_hoisted" => B::recycle(
                ev,
                B::rotate_hoisted(ev, black_box(&self.a), &self.hoisted, 1, &self.gk),
            ),
            "mul_ct_ct_raw" => B::recycle(ev, B::multiply(ev, black_box(&self.a), &self.b)),
            "relin_ct" => B::recycle(ev, B::relinearize(ev, black_box(&self.prod3), &self.rk)),
            "pt_encode" => drop(black_box(B::preencode(ev, black_box(&self.pt)))),
            "encrypt" => drop(black_box(B::encrypt(
                &self.enc,
                black_box(&self.pt),
                &mut self.rng,
            ))),
            "decrypt" => drop(black_box(B::decrypt(&self.dec, black_box(&self.a)))),
            other => unreachable!("unknown op probe {other}"),
        }
    }
}

/// The op timings of one configuration as a [`LatencyModel`].
fn op_model(scheme: SchemeId, params: &RlweParams, us: impl Fn(&str) -> f64) -> OpModel {
    OpModel {
        scheme,
        n: params.poly_degree,
        primes: params.moduli.len(),
        model: LatencyModel {
            add_ct_ct: us("add_ct_ct"),
            sub_ct_ct: us("sub_ct_ct"),
            mul_ct_ct: us("mul_ct_ct_raw"),
            add_ct_pt: us("add_ct_pt"),
            sub_ct_pt: us("sub_ct_pt"),
            mul_ct_pt: us("mul_ct_pt"),
            rot_ct: us("rot_ct"),
            relin_ct: us("relin_ct"),
            rot_hoist_setup: us("rot_hoist_setup"),
            rot_hoisted: us("rot_hoisted"),
        },
    }
}

// --------------------------------------------------------- compiler --

/// Per-kernel samples of the compiler layer.
#[derive(Default)]
struct SynthSamples {
    /// The round each successful synthesis ran in.
    rounds: Vec<usize>,
    cold_ms: Vec<f64>,
    initial_ms: Vec<f64>,
    disk_ms: Vec<f64>,
    memo_us: Vec<f64>,
    examples: Vec<f64>,
    searches: Vec<f64>,
    final_cost: Vec<f64>,
}

/// Cold synthesis, disk-tier hit and memo hit of one kernel under a fresh
/// cache directory. Returns the number of failed checks: a synthesis error,
/// or a hit that is not a hit or returns a different program.
fn synth_round(name: &str, round: usize, dir: &Path, s: &mut SynthSamples) -> u64 {
    let options = synth_options(dir);
    porcupine::clear_synthesis_memo();
    let kernel = synth_kernel(name);
    let searches = porcupine::search_invocations();
    let start = Instant::now();
    let cold = synthesize(&kernel.spec, &kernel.sketch, &options);
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let cold = match cold {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAILED synthesis of {name}: {e}");
            return 1;
        }
    };
    s.rounds.push(round);
    s.cold_ms.push(cold_ms);
    s.initial_ms.push(cold.time_to_initial.as_secs_f64() * 1e3);
    s.searches
        .push((porcupine::search_invocations() - searches) as f64);
    s.examples.push(cold.examples_used as f64);
    s.final_cost.push(cold.final_cost);

    // A new specification instance, as a second process would build it.
    porcupine::clear_synthesis_memo();
    let kernel = synth_kernel(name);
    let start = Instant::now();
    let disk = synthesize(&kernel.spec, &kernel.sketch, &options);
    s.disk_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let start = Instant::now();
    let memo = synthesize(&kernel.spec, &kernel.sketch, &options);
    s.memo_us.push(start.elapsed().as_secs_f64() * 1e6);
    let same = |r: &Result<porcupine::SynthesisResult, _>| {
        r.as_ref()
            .is_ok_and(|r| r.cache_hit && r.program == cold.program)
    };
    u64::from(!same(&disk)) + u64::from(!same(&memo))
}

// ----------------------------------------------------------- measure --

/// Runs the ring, op and compiler probes round-robin for `seconds`
/// (at least one round after a warm-up pass), ticking `speed` between them.
pub fn measure(seconds: f64, seed: u64, scratch: &Path, speed: &mut HostSpeed) -> LayerRun {
    let mut rng = StdRng::seed_from_u64(KEY_SEED ^ seed);
    let bfv_params = RlweParams::fast_4096();
    let small_params = bgv::params::generate_mod_switch_friendly(1024, 65537, 45, 3)
        .expect("static parameters are valid");
    let large_params = bgv::params::generate_mod_switch_friendly(16384, 65537, 55, 9)
        .expect("static parameters are valid");
    let bfv_ctx = BfvScheme::context(bfv_params.clone()).expect("valid");
    let small_ctx = BgvScheme::context(small_params.clone()).expect("valid");
    let large_ctx = BgvScheme::context(large_params.clone()).expect("valid");

    let mut checks = 0u64;
    let mut failed = 0u64;
    let mut groups: Vec<Box<dyn Probes + '_>> = Vec::new();
    for (label, ring, conv) in [
        ("n1024k3", BgvScheme::ring(&small_ctx), None),
        (
            "n4096k3",
            BfvScheme::ring(&bfv_ctx),
            Some(bfv_ctx.q_to_aux()),
        ),
        ("n16384k9", BgvScheme::ring(&large_ctx), None),
    ] {
        groups.push(Box::new(RingProbes::new(label, ring, conv, &mut rng)));
    }
    let (p, f) = OpProbes::<BfvScheme>::new("op.bfv.n4096k3".into(), &bfv_ctx, &mut rng);
    groups.push(Box::new(p));
    failed += f;
    let (p, f) = OpProbes::<BgvScheme>::new("op.bgv.n1024k3".into(), &small_ctx, &mut rng);
    groups.push(Box::new(p));
    failed += f;
    let (p, f) = OpProbes::<BgvScheme>::new("op.bgv.n16384k9".into(), &large_ctx, &mut rng);
    groups.push(Box::new(p));
    failed += f;
    checks += 3;

    // Warm-up pass: fills the scratch pools before anything is timed.
    for g in groups.iter_mut() {
        for i in 0..g.count() {
            g.run(i);
        }
    }
    let mut samples: Vec<Vec<Vec<f64>>> =
        groups.iter().map(|g| vec![Vec::new(); g.count()]).collect();
    let mut synth: Vec<SynthSamples> = SYNTH_KERNELS
        .iter()
        .map(|_| SynthSamples::default())
        .collect();
    let root = scratch.join("layers");
    let cache_before = porcupine::cache::stats();
    let start = Instant::now();
    // Start and end of each round.
    let mut rounds: Vec<(Instant, Instant)> = Vec::new();
    loop {
        let round = Instant::now();
        for (g, group) in groups.iter_mut().enumerate() {
            speed.tick();
            for (i, probe) in samples[g].iter_mut().enumerate() {
                let t = Instant::now();
                group.run(i);
                probe.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        for (k, name) in SYNTH_KERNELS.iter().enumerate() {
            speed.tick();
            let dir = root.join(format!("{}-{name}", rounds.len()));
            checks += 1;
            failed += synth_round(name, rounds.len(), &dir, &mut synth[k]).min(1);
            let _ = std::fs::remove_dir_all(&dir);
        }
        speed.tick();
        rounds.push((round, Instant::now()));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let cache_after = porcupine::cache::stats();

    let slow: Vec<f64> = rounds
        .iter()
        .map(|&(start, end)| speed.slowdown(start, end))
        .collect();
    // The median of timings taken in `rounds`, each divided by the host
    // slowdown of its round.
    let normalized = |v: &[f64], rounds: &mut dyn Iterator<Item = usize>| -> f64 {
        let v: Vec<f64> = v.iter().zip(rounds).map(|(x, r)| x / slow[r]).collect();
        median(&v)
    };
    let mut metrics = Measured::default();
    for (g, group) in groups.iter().enumerate() {
        for (i, v) in samples[g].iter().enumerate() {
            metrics.set(group.name(i), normalized(v, &mut (0..rounds.len())));
        }
    }
    let models = [
        (SchemeId::Bfv, "op.bfv.n4096k3", &bfv_params),
        (SchemeId::Bgv, "op.bgv.n1024k3", &small_params),
        (SchemeId::Bgv, "op.bgv.n16384k9", &large_params),
    ]
    .into_iter()
    .map(|(scheme, prefix, params)| {
        op_model(scheme, params, |op| {
            metrics
                .get(&format!("{prefix}.{op}_us"))
                .expect("op layer measured every op")
        })
    })
    .collect();

    let time = |s: &SynthSamples, v: &[f64]| normalized(v, &mut s.rounds.iter().copied());
    for (s, name) in synth.iter().zip(SYNTH_KERNELS) {
        metrics.set(format!("synth.ms.{name}"), time(s, &s.cold_ms));
    }
    let times = |f: fn(&SynthSamples) -> &Vec<f64>| -> f64 {
        geomean(&synth.iter().map(|s| time(s, f(s))).collect::<Vec<_>>())
    };
    let counts =
        |f: fn(&SynthSamples) -> &Vec<f64>| -> f64 { synth.iter().map(|s| median(f(s))).sum() };
    metrics.set("synth.initial_ms", times(|s| &s.initial_ms));
    metrics.set("synth.examples", counts(|s| &s.examples));
    metrics.set("synth.searches", counts(|s| &s.searches));
    metrics.set("synth.final_cost", counts(|s| &s.final_cost));
    metrics.set("cache.disk_hit_ms", times(|s| &s.disk_ms));
    metrics.set("cache.memo_hit_us", times(|s| &s.memo_us));
    metrics.set("cache.hits", (cache_after.hits - cache_before.hits) as f64);
    metrics.set(
        "cache.misses",
        (cache_after.misses - cache_before.misses) as f64,
    );
    LayerRun {
        metrics,
        models,
        checks,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_model_rescales_only_off_configuration() {
        let measured = LatencyModel::profiled_default();
        let models = [OpModel {
            scheme: SchemeId::Bfv,
            n: 4096,
            primes: 3,
            model: measured.clone(),
        }];
        assert_eq!(replay_model(&models, SchemeId::Bfv, 4096, 3), measured);
        // Off the measured point, the rescale is the calibration scaling.
        let scaled = replay_model(&models, SchemeId::Bfv, 1024, 2);
        let expect = measured.scaled_to(1024, 2);
        assert!((scaled.rot_ct - expect.rot_ct).abs() < 1e-9 * expect.rot_ct);
        assert!((scaled.add_ct_pt - expect.add_ct_pt).abs() < 1e-9 * expect.add_ct_pt);
    }
}
