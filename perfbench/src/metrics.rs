//! The metric catalogue — the single source of every metric's name, unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! declares the same lists; the smoke test fails if the two drift apart.

use crate::json::Value;
use crate::stats::Better;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Metric name (`[A-Za-z0-9_.-]`, unique).
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

fn decl(name: impl Into<String>, unit: &'static str, better: Better, bound: Option<f64>) -> Decl {
    Decl {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// What a user of the compiler sees, reported by every workload's untraced
/// run. Each bound was set at three times or more the widest run-to-run
/// spread measured on a quiet day; on a busy one a few spreads reach half of
/// it (see the README). `setup_s` has the largest bound.
pub fn end_to_end() -> Vec<Decl> {
    use Better::{Higher, Lower};
    vec![
        decl("setup_s", "s", Lower, Some(0.25)),
        decl("request_ms_p50", "ms", Lower, Some(0.15)),
        decl("kernel_ms_p50", "ms", Lower, Some(0.15)),
        decl("client_ms_p50", "ms", Lower, Some(0.15)),
        decl("throughput_rps", "req/s", Higher, Some(0.15)),
        decl("noise_budget_bits", "bits", Higher, Some(0.05)),
        decl("code_instrs", "count", Lower, Some(0.05)),
        decl("peak_rss_mb", "MB", Lower, Some(0.15)),
    ]
}

/// Ring configurations the ring layer is measured at (`n<N>k<primes>`).
pub const RING_CONFIGS: [&str; 3] = ["n1024k3", "n4096k3", "n16384k9"];
/// `(scheme, config)` pairs the scheme-op layer is measured at.
pub const OP_CONFIGS: [(&str, &str); 3] =
    [("bfv", "n4096k3"), ("bgv", "n1024k3"), ("bgv", "n16384k9")];
/// Scheme operations of the op layer.
pub const OPS: [&str; 13] = [
    "add_ct_ct",
    "sub_ct_ct",
    "add_ct_pt",
    "sub_ct_pt",
    "mul_ct_pt",
    "rot_ct",
    "rot_hoist_setup",
    "rot_hoisted",
    "mul_ct_ct_raw",
    "relin_ct",
    "pt_encode",
    "encrypt",
    "decrypt",
];
/// Kernels whose cold synthesis the compiler layer times: the paper kernels
/// that synthesize in well under a second (gx and gy take ~8 s cold,
/// roberts-cross ~53 s and l2-distance ~77 s — too slow to sample).
pub const SYNTH_KERNELS: [&str; 8] = [
    "box-blur",
    "dot-product",
    "hamming-distance",
    "linear-regression",
    "polynomial-regression",
    "sobel-combine",
    "harris-det",
    "harris-trace",
];
/// The `-O2` passes whose rewrite counts are reported.
pub const OPT_PASSES: [&str; 4] = ["cse", "rot-fold", "lazy-relin", "dce"];

/// Single-layer metrics, reported by every workload's traced run. The
/// README says which end-to-end metric each should move, and where.
pub fn per_layer() -> Vec<Decl> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    for what in [
        "ntt_fwd_us",
        "ntt_inv_us",
        "ks_decompose_us",
        "ks_accumulate_us",
        "ks_oneshot_us",
    ] {
        for cfg in RING_CONFIGS {
            v.push(decl(format!("ring.{what}.{cfg}"), "us", Lower, None));
        }
    }
    v.push(decl("ring.base_conv_us.n4096k3", "us", Lower, None));
    for (scheme, cfg) in OP_CONFIGS {
        for op in OPS {
            v.push(decl(
                format!("op.{scheme}.{cfg}.{op}_us"),
                "us",
                Lower,
                None,
            ));
        }
    }
    v.push(decl("op.pool_fresh", "count", Lower, None));
    v.extend([
        decl("kernel.ms_p50", "ms", Lower, None),
        decl("kernel.ms_tail", "ms", Lower, None),
        decl("kernel.model_ratio", "ratio", Lower, None),
        decl("kernel.replay_ratio", "ratio", Lower, None),
        decl("kernel.client_encrypt_ms", "ms", Lower, None),
        decl("kernel.client_decrypt_ms", "ms", Lower, None),
        decl("opt.us", "us", Lower, None),
        decl("opt.sweeps", "count", Lower, None),
    ]);
    for pass in OPT_PASSES {
        v.push(decl(format!("opt.rewrites.{pass}"), "count", Higher, None));
    }
    for k in SYNTH_KERNELS {
        v.push(decl(format!("synth.ms.{k}"), "ms", Lower, None));
    }
    v.extend([
        decl("synth.initial_ms", "ms", Lower, None),
        decl("synth.examples", "count", Lower, None),
        decl("synth.searches", "count", Lower, None),
        decl("synth.final_cost", "cost", Lower, None),
        decl("cache.disk_hit_ms", "ms", Lower, None),
        decl("cache.memo_hit_us", "us", Lower, None),
        decl("cache.hits", "count", Higher, None),
        decl("cache.misses", "count", Lower, None),
        decl("params.select_ms", "ms", Lower, None),
        decl("params.noise_slack_bits_min", "bits", Lower, None),
        decl("setup.context_ms", "ms", Lower, None),
        decl("setup.keygen_ms", "ms", Lower, None),
        decl("setup.relin_key_ms", "ms", Lower, None),
        decl("setup.galois_keys_ms", "ms", Lower, None),
        decl("trace.overhead", "ratio", Lower, None),
    ]);
    v
}

/// Measured metric values of one run, in any order.
#[derive(Debug, Clone, Default)]
pub struct Measured(Vec<(String, f64)>);

impl Measured {
    /// Records `name = value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// Merges another set of measurements in.
    pub fn extend(&mut self, other: Measured) {
        self.0.extend(other.0);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The contract's `metrics` object for `decls`, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics — a bug in the benchmark, not a measurement — if a declared
    /// metric is missing, measured twice or not finite, or if a measured
    /// metric is not declared.
    pub fn render(&self, decls: &[Decl]) -> Value {
        for (name, _) in &self.0 {
            assert!(
                decls.iter().any(|d| &d.name == name),
                "measured an undeclared metric {name}"
            );
        }
        Value::obj(decls.iter().map(|d| {
            let values: Vec<f64> = self
                .0
                .iter()
                .filter(|(n, _)| *n == d.name)
                .map(|(_, v)| *v)
                .collect();
            assert_eq!(
                values.len(),
                1,
                "metric {} measured {} times",
                d.name,
                values.len()
            );
            assert!(values[0].is_finite(), "metric {} = {}", d.name, values[0]);
            (
                d.name.clone(),
                Value::obj([
                    ("value", Value::Num(values[0])),
                    ("unit", Value::str(d.unit)),
                ]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<Decl> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(all.len() <= 8 + 128);
        assert!(per_layer().len() <= 128);
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(d.unit.len() <= 16);
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "duplicate {}",
                d.name
            );
        }
        let e2e = end_to_end();
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            e2e.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    #[should_panic(expected = "measured 0 times")]
    fn render_refuses_a_missing_metric() {
        Measured::default().render(&end_to_end());
    }
}
