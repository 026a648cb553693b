//! `porcupine synth` rejects malformed numeric flags as usage errors before
//! any synthesis starts, instead of silently running with the default.

use std::process::Command;

#[test]
fn malformed_numeric_flags_fail_before_synthesis() {
    let cases: &[(&str, &str)] = &[
        ("--timeout", "abc"),
        ("--timeout", "-1"),
        ("--jobs", "two"),
        ("--jobs", "0"),
        ("--eval-jobs", "x"),
        ("--eval-jobs", "0"),
        ("--seed", "0x10"),
        ("--size", "8.5"),
        ("--margin-bits", "lots"),
        ("--margin-bits", "NaN"),
        ("--margin-bits", "inf"),
    ];
    for &(flag, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_porcupine"))
            .args(["synth", "dot-product", flag, value, "--no-cache"])
            .output()
            .expect("run the porcupine binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} {value}: accepted");
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{flag} {value}: error does not name the flag and value: {stderr}"
        );
        assert!(
            out.stdout.is_empty() && !stderr.contains("components"),
            "{flag} {value}: synthesis ran: {stderr}"
        );
    }
    // A value-less flag is malformed too.
    let out = Command::new(env!("CARGO_BIN_EXE_porcupine"))
        .args(["synth", "dot-product", "--no-cache", "--timeout"])
        .output()
        .expect("run the porcupine binary");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--timeout requires"));
}
