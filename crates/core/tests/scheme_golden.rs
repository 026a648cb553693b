//! Byte-identity pins for both RLWE backends.
//!
//! Every other suite compares *decryptions*; this one fingerprints the raw
//! residues of keys, fresh ciphertexts and the output of every evaluator
//! operation under a fixed seed, so any change to the RNG draw order or to
//! the arithmetic itself — even one that still decrypts correctly — fails
//! here. The fingerprint is FNV-1a-64 over the little-endian bytes of each
//! residue (plus each polynomial's shape and form tag), hand-rolled because
//! std's `DefaultHasher` algorithm is unspecified and may change between
//! toolchains.
//!
//! If a change is *meant* to alter these bits, the failure message prints
//! the new table in paste-ready form.

use bgv::{ModSwitch, ModSwitchKey};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlwe_ring::keyswitch::KeySwitchKey;
use rlwe_ring::params::RlweParams;
use rlwe_ring::poly::{PolyForm, RnsPoly};
use rlwe_ring::zq::shoup_precompute;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn poly(&mut self, p: &RnsPoly) {
        self.word(u64::from(p.form() == PolyForm::Eval));
        self.word(p.residues.len() as u64);
        for row in &p.residues {
            self.word(row.len() as u64);
            for &x in row {
                self.word(x);
            }
        }
    }

    fn polys<'a>(mut self, ps: impl IntoIterator<Item = &'a RnsPoly>) -> u64 {
        for p in ps {
            self.poly(p);
        }
        self.0
    }
}

fn fp_polys<'a>(ps: impl IntoIterator<Item = &'a RnsPoly>) -> u64 {
    Fnv::new().polys(ps)
}

/// Fingerprints a key-switch key's parts, then the Shoup companion
/// `⌊w·2^64/p⌋` of every residue at the key's chain `primes`. The pinned
/// values cover those companions; they are a function of the residues
/// alone, so the fingerprint is one of the key bytes.
fn fp_ksk(k: &KeySwitchKey, primes: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for (b, a) in &k.parts {
        h.poly(b);
        h.poly(a);
    }
    for (b, a) in &k.parts {
        for part in [b, a] {
            for (row, &p) in part.residues.iter().zip(primes) {
                for &w in row {
                    h.word(shoup_precompute(w, p));
                }
            }
        }
    }
    h.0
}

/// Fingerprints keys, a fresh ciphertext and every evaluator op of one
/// backend crate over `RlweParams::test_small()`. The two backends share
/// an API shape, so one macro body drives both.
macro_rules! fingerprints {
    ($krate:ident, $ctx:ty) => {{
        use $krate::encoding::BatchEncoder;
        use $krate::encrypt::Encryptor;
        use $krate::evaluator::Evaluator;
        use $krate::keys::KeyGenerator;

        let ctx = <$ctx>::new(RlweParams::test_small()).unwrap();
        let mut rng = StdRng::seed_from_u64(0x601D);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let pk = kg.public_key(&mut rng);
        let rk = kg.relin_key(&mut rng);
        let gk = kg.galois_keys_for_rotations(&[1], true, &mut rng);
        let coder = BatchEncoder::new(&ctx);
        let enc = Encryptor::new(&ctx, pk.clone());
        let ev = Evaluator::new(&ctx);

        let t = ctx.params().plain_modulus;
        let n = coder.slot_count() as u64;
        let va: Vec<u64> = (0..n).map(|i| (i * 7 + 3) % t).collect();
        let vb: Vec<u64> = (0..n).map(|i| (i * i + 11) % t).collect();
        let pt = coder.encode(&vb);
        let a = enc.encrypt(&coder.encode(&va), &mut rng);
        let b = enc.encrypt(&pt, &mut rng);

        let rot1 = rlwe_ring::batch::galois_element_for_rotation(n as usize, 1);
        let prod = ev.multiply(&a, &b);
        let square = ev.multiply(&a, &a);
        let hoisted = ev.hoist(&a);
        let ct = |c: &$krate::Ciphertext| fp_polys(&c.parts);
        vec![
            ("secret_key", fp_polys([&kg.secret_key().s])),
            ("public_key", fp_polys([&pk.b, &pk.a])),
            ("relin_key", fp_ksk(&rk.0, ctx.ring().primes())),
            (
                "galois_key_step1",
                fp_ksk(&gk.keys[&rot1].key, ctx.ring().primes()),
            ),
            ("fresh_ct", ct(&a)),
            ("add", ct(&ev.add(&a, &b))),
            ("sub", ct(&ev.sub(&a, &b))),
            ("negate", ct(&ev.negate(&a))),
            ("add_plain", ct(&ev.add_plain(&a, &pt))),
            ("sub_plain", ct(&ev.sub_plain(&a, &pt))),
            ("mul_plain", ct(&ev.mul_plain(&a, &pt))),
            ("multiply", ct(&prod)),
            ("relinearize", ct(&ev.relinearize(&prod, &rk))),
            ("square", ct(&square)),
            ("square_relinearized", ct(&ev.relinearize(&square, &rk))),
            ("rotate_rows", ct(&ev.rotate_rows(&a, 1, &gk))),
            ("rotate_columns", ct(&ev.rotate_columns(&a, &gk))),
            (
                "rotate_rows_hoisted",
                ct(&ev.rotate_rows_hoisted(&a, &hoisted, 1, &gk)),
            ),
        ]
    }};
}

fn check(scheme: &str, got: &[(&str, u64)], want: &[(&str, u64)]) {
    if got != want {
        let table: String = got
            .iter()
            .map(|(name, h)| format!("        (\"{name}\", {h:#018x}),\n"))
            .collect();
        panic!("{scheme} fingerprints changed; the current table is:\n{table}");
    }
}

#[test]
fn bfv_keys_ciphertexts_and_ops_are_byte_identical() {
    let got = fingerprints!(bfv, bfv::params::BfvContext);
    check("bfv", &got, BFV);
}

#[test]
fn bgv_keys_ciphertexts_and_ops_are_byte_identical() {
    let mut got = fingerprints!(bgv, bgv::params::BgvContext);
    // Modulus switching needs a switch-friendly chain (every prime
    // ≡ 1 mod t), so this leg runs over the BGV preset.
    let ctx = bgv::params::BgvContext::new(bgv::params::test_small()).unwrap();
    let next = ctx.reduced().unwrap();
    let mut rng = StdRng::seed_from_u64(0x601D);
    let kg = bgv::keys::KeyGenerator::new(&ctx, &mut rng);
    let enc = bgv::encrypt::Encryptor::new(&ctx, kg.public_key(&mut rng));
    let rk = kg.relin_key(&mut rng);
    let coder = bgv::encoding::BatchEncoder::new(&ctx);
    let ev = bgv::evaluator::Evaluator::new(&ctx);
    let x = enc.encrypt(&coder.encode(&[5, 6, 7]), &mut rng);
    let sq = ev.multiply_relin(&x, &x, &rk);
    got.push((
        "mod_switch_to_next",
        fp_polys(&ev.mod_switch_to_next(&sq, &next).parts),
    ));
    got.push((
        "secret_key_mod_switched",
        fp_polys([&kg.secret_key().mod_switched(&next).s]),
    ));
    got.push((
        "relin_key_mod_switched",
        fp_ksk(&rk.mod_switched(&next).0, next.ring().primes()),
    ));
    check("bgv", &got, BGV);
}

const BFV: &[(&str, u64)] = &[
    ("secret_key", 0xf21e4723f53daa57),
    ("public_key", 0xf049f8e568cc9fa1),
    ("relin_key", 0x39c9229f7a78c6ee),
    ("galois_key_step1", 0x96e66c7e6047c4b8),
    ("fresh_ct", 0x352f10ef42143f1b),
    ("add", 0x9dcb47378c5d8b16),
    ("sub", 0x7b5224b9bbde7372),
    ("negate", 0xa00b054fcbfed174),
    ("add_plain", 0xd13c92164c57f67f),
    ("sub_plain", 0xe0caac60857dd7ec),
    ("mul_plain", 0x69def97a9f769031),
    ("multiply", 0x58244c235c5f0ec5),
    ("relinearize", 0x6085086466ee600e),
    ("square", 0xcb54d010f0e4f598),
    ("square_relinearized", 0x897c1b2245c29dce),
    ("rotate_rows", 0x230a214b9057581e),
    ("rotate_columns", 0x1c04d31c49e0f34d),
    ("rotate_rows_hoisted", 0xef2137b15cf6a627),
];

const BGV: &[(&str, u64)] = &[
    ("secret_key", 0xf21e4723f53daa57),
    ("public_key", 0xf5ad452a9387cd4d),
    ("relin_key", 0x11d7feee276452b0),
    ("galois_key_step1", 0x6e1ee334d92a6b32),
    ("fresh_ct", 0x85501c31129dac70),
    ("add", 0x21aaf9c5d7bfa5f8),
    ("sub", 0x418f4e08505efe4a),
    ("negate", 0xe49857f14881a6b6),
    ("add_plain", 0x1d880bd3c83b2a5d),
    ("sub_plain", 0xa222b04c880b3b0d),
    ("mul_plain", 0xd91b5eac508ffdb4),
    ("multiply", 0xd1baa2aa4c97c269),
    ("relinearize", 0x65641216683a8e3e),
    ("square", 0x257e7562fb08fd5b),
    ("square_relinearized", 0x593329fdbf9ddae5),
    ("rotate_rows", 0x0d8742d8ccc0226a),
    ("rotate_columns", 0xcf5466da04b7d429),
    ("rotate_rows_hoisted", 0x5c3decf08d660581),
    ("mod_switch_to_next", 0xb6512c3c0a40e578),
    ("secret_key_mod_switched", 0x079a47ca5d14dab8),
    ("relin_key_mod_switched", 0xedd9817ef326e9ec),
];
