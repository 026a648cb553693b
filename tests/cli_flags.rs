//! `porcupine synth` rejects malformed numeric flags (and a malformed
//! `--emit`) as usage errors before any synthesis starts, instead of
//! silently running with the default.

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
        ("--emit", "sael"),
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

/// `--emit` takes `seal` or `quill`: a missing value is a usage error
/// naming the flag, on `baseline` as on `synth` (a bad `synth` value is in
/// the table above), and a `seal` elsewhere on the line — here a cache
/// directory so named — does not switch the output to C++.
#[test]
fn emit_is_parsed_not_pattern_matched() {
    let dir = std::env::temp_dir().join(format!("porcupine-emit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_porcupine"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run the porcupine binary")
    };
    for args in [
        &["synth", "box-blur", "--no-cache", "--emit"][..],
        &["baseline", "box-blur", "--emit"],
        &["baseline", "box-blur", "--emit", "sael"],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("--emit requires"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: printed a program");
    }
    for (args, seal) in [
        (&["synth", "box-blur", "--cache", "seal"][..], false),
        (&["baseline", "box-blur", "seal"], false),
        (&["baseline", "box-blur", "--emit", "seal"], true),
    ] {
        let out = run(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}");
        assert_eq!(!stdout.starts_with("(kernel"), seal, "{args:?}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An explicit `--eval-jobs` wins over the environment: a malformed
/// `PORCUPINE_EVAL_JOBS` is never read when the flag is given.
#[test]
fn explicit_eval_jobs_ignores_a_malformed_env_var() {
    let out = Command::new(env!("CARGO_BIN_EXE_porcupine"))
        .args(["synth", "dot-product", "--eval-jobs", "1"])
        .args(["--no-cache", "--params", "auto"])
        .env("PORCUPINE_EVAL_JOBS", "abc")
        .output()
        .expect("run the porcupine binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", out.status);
    assert!(stderr.contains("encrypted check"), "{stderr}");
}

/// Each search/lowering variable with the `synth` flag that overrides it,
/// and a malformed value for the variable.
const ENV_FLAGS: &[(&str, &[&str], &str)] = &[
    ("PORCUPINE_OPT", &["-O2"], "3"),
    ("PORCUPINE_OPT", &["-O2"], "1"),
    ("PORCUPINE_STRATEGY", &["--strategy", "bottom-up"], "DFS"),
    ("PORCUPINE_JOBS", &["--jobs", "1"], "two"),
];

/// A malformed variable without its flag is a clean error naming the
/// variable and the value, before any synthesis starts — never a silent
/// fallback to the default, and never a panic.
#[test]
fn malformed_env_vars_fail_without_their_flag() {
    for &(var, _, value) in ENV_FLAGS {
        let out = Command::new(env!("CARGO_BIN_EXE_porcupine"))
            .args(["synth", "dot-product", "--no-cache"])
            .env(var, value)
            .output()
            .expect("run the porcupine binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{var}={value}: {stderr}");
        assert!(
            stderr.contains(var) && stderr.contains(value) && !stderr.contains("panicked"),
            "{var}={value}: error does not name the variable and value: {stderr}"
        );
        assert!(
            out.stdout.is_empty() && !stderr.contains("components"),
            "{var}={value}: synthesis ran: {stderr}"
        );
    }
}

/// An explicit flag wins over its variable, which is then never read.
#[test]
fn explicit_flags_ignore_malformed_env_vars() {
    for &(var, flag, value) in ENV_FLAGS {
        let out = Command::new(env!("CARGO_BIN_EXE_porcupine"))
            .args(["synth", "dot-product", "--no-cache"])
            .args(flag)
            .env(var, value)
            .output()
            .expect("run the porcupine binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{var}={value} {flag:?}: {stderr}");
        assert!(stderr.contains("components"), "{stderr}");
    }
}
