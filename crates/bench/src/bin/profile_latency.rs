//! Prints paste-ready `quill::cost::LatencyModel` blocks from the op layer
//! of a traced perfbench run (the paper profiles SEAL for Quill's cost
//! model, §4.2). perfbench times the ops; this tool reads its result line,
//! the last line of the file:
//!
//! ```text
//! perfbench --workload bfv-pipelines-par2 --seed 1 --seconds 2 --trace 1 > traced.out
//! cargo run -p porcupine-bench --release --bin profile_latency -- traced.out
//! ```
//!
//! Fields map as in perfbench's `op_model` (`mul_ct_ct` ← `mul_ct_ct_raw`,
//! `relin_ct` measured). BGV has no n4096k3 row, so the `profiled_bgv`
//! candidate is the n1024k3 row rescaled with [`LatencyModel::scaled_to`]'s
//! factors. Exits 1 if the run is not correct or lacks an op row, if an
//! n1024k3 add/sub (ct-ct or ct-pt) is above the seed's N = 4096 constant,
//! or if at any configuration a hoisted 4-rotation fan,
//! `rot_hoist_setup + 4·rot_hoisted`, does not beat `4·rot_ct`.

use quill::cost::LatencyModel;

/// `LatencyModel` field ← perfbench op row, as perfbench's `op_model`.
const FIELDS: [(&str, &str); 10] = [
    ("add_ct_ct", "add_ct_ct"),
    ("sub_ct_ct", "sub_ct_ct"),
    ("mul_ct_ct", "mul_ct_ct_raw"),
    ("add_ct_pt", "add_ct_pt"),
    ("sub_ct_pt", "sub_ct_pt"),
    ("mul_ct_pt", "mul_ct_pt"),
    ("rot_ct", "rot_ct"),
    ("relin_ct", "relin_ct"),
    ("rot_hoist_setup", "rot_hoist_setup"),
    ("rot_hoisted", "rot_hoisted"),
];

/// The configurations perfbench's op layer measures, and their blocks' use.
const CONFIGS: [(&str, &str); 3] = [
    ("op.bfv.n4096k3", "measured; the profiled_default candidate"),
    ("op.bgv.n1024k3", "measured"),
    ("op.bgv.n16384k9", "measured"),
];

/// The seed's `profiled_default` componentwise constants (µs), measured at
/// N = 4096 on its BigInt-CRT backend: ceilings for the n1024k3 rows.
const SEED_CEILINGS: [(&str, f64); 4] = [
    ("add_ct_ct", 43.9),
    ("sub_ct_ct", 37.5),
    ("add_ct_pt", 66.9),
    ("sub_ct_pt", 68.4),
];

/// One `LatencyModel` candidate.
#[derive(Debug)]
struct Block {
    /// The perfbench metric prefix of its configuration.
    prefix: &'static str,
    role: &'static str,
    /// Latencies (µs) in [`FIELDS`] order.
    us: [f64; 10],
}

impl Block {
    fn get(&self, field: &str) -> f64 {
        self.us[FIELDS.iter().position(|(f, _)| *f == field).unwrap()]
    }

    /// Paste-ready Rust, plus a note if `rot_hoist_setup + rot_hoisted <
    /// rot_ct`, which the shipped tables never allow.
    fn render(&self) -> String {
        let mut s = format!("// {}: {}\nLatencyModel {{\n", self.prefix, self.role);
        for ((field, _), us) in FIELDS.iter().zip(self.us) {
            s += &format!("    {field}: {us:.1},\n");
        }
        s += "}\n";
        let pair = self.get("rot_hoist_setup") + self.get("rot_hoisted");
        if pair < self.get("rot_ct") {
            s += &format!(
                "// note: rot_hoist_setup + rot_hoisted = {pair:.1} < rot_ct = {:.1}; the shipped \
                 tables keep setup + hoisted >= rot_ct, so raise rot_hoist_setup before pasting\n",
                self.get("rot_ct")
            );
        }
        s
    }
}

/// A model's fields in [`FIELDS`] order.
fn fields(m: &LatencyModel) -> [f64; 10] {
    [
        m.add_ct_ct,
        m.sub_ct_ct,
        m.mul_ct_ct,
        m.add_ct_pt,
        m.sub_ct_pt,
        m.mul_ct_pt,
        m.rot_ct,
        m.relin_ct,
        m.rot_hoist_setup,
        m.rot_hoisted,
    ]
}

/// The text of `key`'s value in a JSON line, up to the next `,` or `}`.
fn value<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("\"{key}\"");
    let rest = json[json.find(&key)? + key.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    Some(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim_end())
}

/// The measured blocks of a perfbench stdout, then the derived BGV
/// n4096k3 block; or every gate the run fails, each naming its row.
fn blocks(stdout: &str) -> Result<Vec<Block>, String> {
    let line = stdout.trim_end().lines().last().unwrap_or("");
    let (correct, failed) = (value(line, "correct"), value(line, "failed"));
    if (correct, failed) != (Some("true"), Some("0")) {
        return Err(format!("\"correct\": {correct:?}, \"failed\": {failed:?}"));
    }
    let mut out = Vec::new();
    for (prefix, role) in CONFIGS {
        let mut us = [0.0; 10];
        for (v, (_, op)) in us.iter_mut().zip(FIELDS) {
            let row = format!("{prefix}.{op}_us");
            let metric = value(line, &row).and_then(|m| value(m, "value"));
            *v = metric.and_then(|v| v.parse().ok()).ok_or_else(|| {
                format!("missing op row {row} (was the run traced with --trace 1?)")
            })?;
        }
        out.push(Block { prefix, role, us });
    }

    let mut failures = Vec::new();
    for b in &out {
        for (field, seed) in SEED_CEILINGS {
            let us = b.get(field);
            if b.prefix.ends_with(".n1024k3") && us > seed {
                failures.push(format!(
                    "{}.{field}_us = {us:.1} µs > seed {seed} µs",
                    b.prefix
                ));
            }
        }
        let fan = b.get("rot_hoist_setup") + 4.0 * b.get("rot_hoisted");
        let seq = 4.0 * b.get("rot_ct");
        if fan >= seq {
            failures.push(format!(
                "{}: a hoisted 4-fan (rot_hoist_setup_us + 4·rot_hoisted_us = {fan:.1} µs) \
                 does not beat 4·rot_ct_us = {seq:.1} µs",
                b.prefix
            ));
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }

    let from = fields(&LatencyModel::uniform().scaled_to(1024, 3));
    let to = fields(&LatencyModel::uniform().scaled_to(4096, 3));
    // out[1] is bgv n1024k3 (CONFIGS order), the nearest bgv row.
    let mut us = out[1].us;
    for ((v, f), t) in us.iter_mut().zip(from).zip(to) {
        *v *= t / f;
    }
    let prefix = "op.bgv.n4096k3";
    let role = "derived from op.bgv.n1024k3 with LatencyModel::scaled_to's factors \
                (no bgv n4096k3 row is measured); the profiled_bgv candidate";
    out.push(Block { prefix, role, us });
    Ok(out)
}

fn main() {
    let path = std::env::args().nth(1).expect("a perfbench stdout file");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    match blocks(&text) {
        Ok(blocks) => blocks.iter().for_each(|b| println!("{}", b.render())),
        Err(e) => {
            eprintln!("profile_latency: {path}:\n{e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced perfbench stdout: the tags line, then the result object
    /// (op rows from a 2-second `bfv-pipelines-par2` run, rounded; most
    /// other metrics left out).
    const FIXTURE: &str = concat!(
        r#"tags: {"workload": "bfv-pipelines-par2", "seed": 1, "trace": true}"#,
        "\n",
        r#"{"correct": true, "attempted": 73, "failed": 0, "metrics": {"#,
        r#""ring.ntt_fwd_us.n1024k3": {"value": 7.4, "unit": "us"}, "#,
        r#""op.bfv.n4096k3.add_ct_ct_us": {"value": 31.8, "unit": "us"}, "#,
        r#""op.bfv.n4096k3.sub_ct_ct_us": {"value": 15.8, "unit": "us"}, "#,
        r#""op.bfv.n4096k3.add_ct_pt_us": {"value": 13.9, "unit": "us"}, "#,
        r#""op.bfv.n4096k3.sub_ct_pt_us": {"value": 7, "unit": "us"}, "#,
        r#""op.bfv.n4096k3.mul_ct_pt_us": {"value": 58.9, "unit": "us"}, "#,
        r#""op.bfv.n4096k3.rot_ct_us": {"value": 661.2, "unit": "us"}, "#,
        r#""op.bfv.n4096k3.rot_hoist_setup_us": {"value": 464.3, "unit": "us"}, "#,
        r#""op.bfv.n4096k3.rot_hoisted_us": {"value": 218.3, "unit": "us"}, "#,
        r#""op.bfv.n4096k3.mul_ct_ct_raw_us": {"value": 2892.3, "unit": "us"}, "#,
        r#""op.bfv.n4096k3.relin_ct_us": {"value": 589.2, "unit": "us"}, "#,
        r#""op.bfv.n4096k3.pt_encode_us": {"value": 103.8, "unit": "us"}, "#,
        r#""op.bgv.n1024k3.add_ct_ct_us": {"value": 10.7, "unit": "us"}, "#,
        r#""op.bgv.n1024k3.sub_ct_ct_us": {"value": 4.2, "unit": "us"}, "#,
        r#""op.bgv.n1024k3.add_ct_pt_us": {"value": 3.5, "unit": "us"}, "#,
        r#""op.bgv.n1024k3.sub_ct_pt_us": {"value": 1.9, "unit": "us"}, "#,
        r#""op.bgv.n1024k3.mul_ct_pt_us": {"value": 14.7, "unit": "us"}, "#,
        r#""op.bgv.n1024k3.rot_ct_us": {"value": 143.3, "unit": "us"}, "#,
        r#""op.bgv.n1024k3.rot_hoist_setup_us": {"value": 81.1, "unit": "us"}, "#,
        r#""op.bgv.n1024k3.rot_hoisted_us": {"value": 61.9, "unit": "us"}, "#,
        r#""op.bgv.n1024k3.mul_ct_ct_raw_us": {"value": 28.5, "unit": "us"}, "#,
        r#""op.bgv.n1024k3.relin_ct_us": {"value": 129.4, "unit": "us"}, "#,
        r#""op.bgv.n16384k9.add_ct_ct_us": {"value": 327.7, "unit": "us"}, "#,
        r#""op.bgv.n16384k9.sub_ct_ct_us": {"value": 276.2, "unit": "us"}, "#,
        r#""op.bgv.n16384k9.add_ct_pt_us": {"value": 150.5, "unit": "us"}, "#,
        r#""op.bgv.n16384k9.sub_ct_pt_us": {"value": 102.1, "unit": "us"}, "#,
        r#""op.bgv.n16384k9.mul_ct_pt_us": {"value": 697, "unit": "us"}, "#,
        r#""op.bgv.n16384k9.rot_ct_us": {"value": 13898.8, "unit": "us"}, "#,
        r#""op.bgv.n16384k9.rot_hoist_setup_us": {"value": 9639.8, "unit": "us"}, "#,
        r#""op.bgv.n16384k9.rot_hoisted_us": {"value": 4307.3, "unit": "us"}, "#,
        r#""op.bgv.n16384k9.mul_ct_ct_raw_us": {"value": 975.1, "unit": "us"}, "#,
        r#""op.bgv.n16384k9.relin_ct_us": {"value": 13838.7, "unit": "us"}, "#,
        r#""op.pool_fresh": {"value": 0, "unit": "count"}}}"#,
        "\n",
    );

    /// [`FIXTURE`] with `row`'s value replaced by `value`.
    fn with(row: &str, value: f64) -> String {
        let key = format!("\"{row}\": {{\"value\": ");
        let start = FIXTURE.find(&key).expect("a fixture row") + key.len();
        let end = start + FIXTURE[start..].find(',').expect("a unit after the value");
        format!("{}{value}{}", &FIXTURE[..start], &FIXTURE[end..])
    }

    #[test]
    fn field_order_matches_latency_model() {
        let m = LatencyModel::profiled_default();
        let debug = format!("{m:?}");
        for ((field, _), us) in FIELDS.iter().zip(fields(&m)) {
            assert!(debug.contains(&format!("{field}: {us:?}")), "{field}");
        }
    }

    #[test]
    fn bfv_block_is_the_measured_rows() {
        let b = &blocks(FIXTURE).unwrap()[0];
        assert_eq!(b.prefix, "op.bfv.n4096k3");
        // mul_ct_ct is the raw multiply; relin_ct its own measured row.
        let want = [
            31.8, 15.8, 2892.3, 13.9, 7.0, 58.9, 661.2, 589.2, 464.3, 218.3,
        ];
        assert_eq!(b.us, want);
        assert!(b.render().contains(
            "LatencyModel {\n    add_ct_ct: 31.8,\n    sub_ct_ct: 15.8,\n    mul_ct_ct: 2892.3,\n"
        ));
    }

    #[test]
    fn bgv_4096_block_is_the_1024_row_rescaled() {
        let all = blocks(FIXTURE).unwrap();
        assert_eq!(all.len(), 4);
        let (small, derived) = (&all[1], &all[3]);
        assert_eq!(
            (small.prefix, derived.prefix),
            ("op.bgv.n1024k3", "op.bgv.n4096k3")
        );
        assert!(derived.render().contains("derived"));
        // scaled_to: componentwise ops grow with k·N (×4 from N = 1024 to
        // 4096), key switches with k²·N·log₂N (×4096·12 / (1024·10) = 4.8).
        for (field, _) in FIELDS {
            let key_switch = [
                "mul_ct_ct",
                "rot_ct",
                "relin_ct",
                "rot_hoist_setup",
                "rot_hoisted",
            ];
            let ratio = if key_switch.contains(&field) {
                4.8
            } else {
                4.0
            };
            let want = small.get(field) * ratio;
            assert!((derived.get(field) - want).abs() < 1e-9 * want, "{field}");
        }
    }

    #[test]
    fn each_gate_names_its_row() {
        let fails = |out: &str, needle: &str| {
            let e = blocks(out).unwrap_err();
            assert!(e.contains(needle), "{e:?} does not name {needle}");
        };
        fails(
            &FIXTURE.replace("\"correct\": true", "\"correct\": false"),
            "\"correct\"",
        );
        fails(
            &FIXTURE.replace("\"failed\": 0", "\"failed\": 2"),
            "\"failed\": Some(\"2\")",
        );
        fails(
            &FIXTURE.replace("op.bgv.n16384k9.relin_ct_us", "op.bgv.n16384k9.relin_us"),
            "missing op row op.bgv.n16384k9.relin_ct_us",
        );
        for (field, seed) in SEED_CEILINGS {
            let row = format!("op.bgv.n1024k3.{field}_us");
            assert!(blocks(&with(&row, seed)).is_ok(), "{row} at the ceiling");
            fails(&with(&row, seed + 0.1), &row);
        }
        // The n4096k3 componentwise rows are not gated.
        assert!(blocks(&with("op.bfv.n4096k3.add_ct_ct_us", 60.0)).is_ok());
        // 464.3 + 4·218.3 = 1337.5 beats 4·661.2 until rot_ct drops to 334.4.
        assert!(blocks(&with("op.bfv.n4096k3.rot_ct_us", 334.5)).is_ok());
        fails(
            &with("op.bfv.n4096k3.rot_ct_us", 334.375),
            "op.bfv.n4096k3: a hoisted 4-fan",
        );
        fails(
            &with("op.bgv.n16384k9.rot_hoisted_us", 12000.0),
            "op.bgv.n16384k9",
        );
    }

    #[test]
    fn hoisting_note_marks_exactly_the_undercutting_blocks() {
        const NOTE: &str = "// note: rot_hoist_setup + rot_hoisted";
        // bgv n1024k3 (81.1 + 61.9 < 143.3) and its derived rescale do;
        // bfv n4096k3 (464.3 + 218.3 >= 661.2) and bgv n16384k9 do not.
        let notes: Vec<bool> = blocks(FIXTURE)
            .unwrap()
            .iter()
            .map(|b| b.render().contains(NOTE))
            .collect();
        assert_eq!(notes, [false, true, false, true]);
        let b = &blocks(&with("op.bgv.n1024k3.rot_hoist_setup_us", 81.5)).unwrap()[1];
        assert!(
            !b.render().contains(NOTE),
            "81.5 + 61.9 does not undercut 143.3"
        );
    }
}
