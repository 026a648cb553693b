//! `porcupine synth` rejects malformed numeric flags (and a malformed
//! `--emit`) as usage errors before any synthesis starts, instead of
//! silently running with the default; a closed stdout ends a command
//! quietly instead of panicking; a closed stderr costs only the report
//! lines; and a timeout too large for the clock means no deadline.

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

/// A timeout too large to add to the clock sets no deadline: the run
/// prints what a run under the default timeout prints, where it used to
/// panic (status 101) adding the timeout to the start time.
#[test]
fn a_timeout_past_the_clock_sets_no_deadline() {
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_porcupine"))
            .args(["synth", "linear-regression", "--no-cache"])
            .args(extra)
            .output()
            .expect("run the porcupine binary")
    };
    let default = run(&[]);
    let unbounded = run(&["--timeout", &u64::MAX.to_string()]);
    let stderr = String::from_utf8_lossy(&unbounded.stderr);
    assert!(unbounded.status.success(), "{}: {stderr}", unbounded.status);
    assert!(!unbounded.stdout.is_empty(), "{stderr}");
    assert_eq!(unbounded.stdout, default.stdout);
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

/// The retired configuration variables, each with a malformed value. The
/// CLI reads none of them: each flag's default is the library's.
const RETIRED_VARS: &[(&str, &str)] = &[
    ("PORCUPINE_OPT", "3"),
    ("PORCUPINE_STRATEGY", "DFS"),
    ("PORCUPINE_JOBS", "two"),
    ("PORCUPINE_EVAL_JOBS", "abc"),
    ("PORCUPINE_SCHEME", "ckks"),
    ("PORCUPINE_PARAMS", "huge"),
];

/// A malformed retired variable changes nothing: the run succeeds with the
/// same output as a run without it, encrypted check included.
#[test]
fn retired_env_vars_are_ignored() {
    let run = |var: Option<(&str, &str)>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_porcupine"));
        cmd.args(["synth", "dot-product", "--no-cache", "--params", "auto"]);
        for &(name, _) in RETIRED_VARS {
            cmd.env_remove(name);
        }
        if let Some((name, value)) = var {
            cmd.env(name, value);
        }
        cmd.output().expect("run the porcupine binary")
    };
    // The encrypted check's line carries the measured noise budget, which
    // a seed fixes; the rest of stderr carries timings.
    let check_line = |stderr: &str| {
        (stderr.lines())
            .find(|l| l.contains("encrypted check"))
            .map(str::to_string)
    };
    let clean = run(None);
    let clean_stderr = String::from_utf8_lossy(&clean.stderr);
    assert!(clean.status.success(), "{clean_stderr}");
    let clean_check = check_line(&clean_stderr);
    assert!(clean_check.is_some(), "{clean_stderr}");
    for &(var, value) in RETIRED_VARS {
        let out = run(Some((var, value)));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{var}={value}: {stderr}");
        assert_eq!(out.stdout, clean.stdout, "{var}={value}: program changed");
        assert_eq!(check_line(&stderr), clean_check, "{var}={value}: {stderr}");
    }
}

/// An explicit `--eval-jobs` runs with a malformed `PORCUPINE_EVAL_JOBS`
/// set: the flag alone decides the worker count.
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

/// Each retired search/lowering variable with the `synth` flag that sets
/// the same option, and a malformed value for the variable.
const ENV_FLAGS: &[(&str, &[&str], &str)] = &[
    ("PORCUPINE_OPT", &["-O2"], "3"),
    ("PORCUPINE_OPT", &["-O2"], "1"),
    ("PORCUPINE_JOBS", &["--jobs", "1"], "two"),
];

/// An explicit flag runs with its malformed retired variable set.
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

/// Writing to a pipe whose reader is gone (`porcupine list | head -0`)
/// ends the command with a failure status and nothing on stderr: no panic
/// (status 101), no "Broken pipe" message, no backtrace.
#[test]
fn closed_stdout_ends_quietly() {
    for args in [&["list"][..], &["baseline", "box-blur"]] {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_porcupine"))
            .args(args)
            .stdout(writer)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("run the porcupine binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?}: succeeded");
        assert_ne!(out.status.code(), Some(101), "{args:?} panicked: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

/// With stderr a pipe whose reader is gone, the report lines are lost but
/// nothing else: the command exits 0 with its program on stdout, where a
/// report line written before the program used to panic (status 101).
#[test]
fn closed_stderr_still_prints_the_program() {
    for args in [
        &["baseline", "box-blur", "-O2"][..],
        &["synth", "box-blur", "--no-cache"],
    ] {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_porcupine"))
            .args(args)
            .stderr(writer)
            .output()
            .expect("run the porcupine binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(stdout.starts_with("(kernel box-blur"), "{args:?}: {stdout}");
    }
}
