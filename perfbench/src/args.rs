//! Strict command-line parsing: every flag is known, every value parses,
//! nothing is silently defaulted from a malformed argument. A benchmark that
//! quietly measured something other than what it was asked to would corrupt
//! the comparison it exists for, so any usage error exits with code 2.

use crate::workload::Workload;
use std::path::PathBuf;

/// Default measured seconds per run, and the length of every `--record`ed
/// run: `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 15;
/// Runs per workload `--record` makes.
pub const RECORD_RUNS: usize = 3;

/// One benchmark run of one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input (and key) of the run is drawn from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// `false`: the untraced end-to-end run; `true`: the traced per-layer run.
    pub trace: bool,
}

/// Runs of every workload, recorded to or compared against a file:
/// [`RECORD_RUNS`] runs of [`DEFAULT_SECONDS`] when recording, as many and
/// as long as the reference's when comparing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesArgs {
    /// The results file to write (`--record`) or compare against (`--compare`).
    pub file: PathBuf,
    /// Seed of the first run; run `i` uses `seed + i`.
    pub seed: u64,
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `--workload <name> ...`: one run, result JSON on the last stdout line.
    Run(RunArgs),
    /// `--record <file> ...`: untraced runs of every workload, written to `file`.
    Record(SeriesArgs),
    /// `--compare <file> ...`: fresh runs of every workload against `file`.
    Compare(SeriesArgs),
}

/// Usage text printed with every usage error.
pub const USAGE: &str = "\
usage: perfbench --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
       perfbench --record <file> [--seed <u64>]
       perfbench --compare <file> [--seed <u64>]
workloads: bfv-4096-seq, bgv-auto-seq, bfv-pipelines-par2, compile-cold";

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the offending argument: unknown flags, a flag given
/// twice or without a value, a malformed number, an unknown workload, or a
/// flag that does not belong to the selected mode.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut flags: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace" | "--record" | "--compare"
        ) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.iter().any(|(f, _)| f == flag) {
            return Err(format!("{flag} given twice"));
        }
        flags.push((flag, value));
    }
    let get = |name: &str| flags.iter().find(|(f, _)| *f == name).map(|(_, v)| *v);
    let seed = get("--seed").map_or(Ok(1), |v| number::<u64>("--seed", v))?;
    let seconds: Option<u64> = get("--seconds")
        .map(|v| number("--seconds", v))
        .transpose()?;
    if seconds == Some(0) {
        return Err("--seconds must be at least 1".into());
    }
    let modes: Vec<&str> = ["--workload", "--record", "--compare"]
        .into_iter()
        .filter(|m| get(m).is_some())
        .collect();
    let only = |allowed: &[&str]| match flags.iter().find(|(f, _)| !allowed.contains(f)) {
        Some((f, _)) => Err(format!("{f} cannot be combined with {}", modes[0])),
        None => Ok(()),
    };
    match modes.as_slice() {
        ["--workload"] => {
            only(&["--workload", "--seed", "--seconds", "--trace"])?;
            let name = get("--workload").expect("mode flag present");
            let workload =
                Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            let trace = match get("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(v) => return Err(format!("--trace must be 0 or 1, got {v:?}")),
            };
            Ok(Command::Run(RunArgs {
                workload,
                seed,
                seconds: seconds.unwrap_or(DEFAULT_SECONDS),
                trace,
            }))
        }
        [mode @ ("--record" | "--compare")] => {
            only(&[mode, "--seed"])?;
            let series = SeriesArgs {
                file: PathBuf::from(get(mode).expect("mode flag present")),
                seed,
            };
            Ok(if *mode == "--record" {
                Command::Record(series)
            } else {
                Command::Compare(series)
            })
        }
        [] => Err("one of --workload, --record or --compare is required".into()),
        _ => Err(format!("{} are mutually exclusive", modes.join(" and "))),
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs a non-negative integer, got {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Command, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_run_invocation() {
        let cmd = parse_str("--workload bgv-auto-seq --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                workload: Workload::BgvAutoSeq,
                seed: 7,
                seconds: 10,
                trace: true,
            })
        );
    }

    #[test]
    fn defaults_apply_only_to_absent_flags() {
        let Command::Run(run) = parse_str("--workload compile-cold").unwrap() else {
            panic!("run mode expected");
        };
        assert_eq!(
            (run.seed, run.seconds, run.trace),
            (1, DEFAULT_SECONDS, false)
        );
        let Command::Compare(s) = parse_str("--compare ref.json").unwrap() else {
            panic!("compare mode expected");
        };
        assert_eq!((s.seed, s.file), (1, PathBuf::from("ref.json")));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload compile-cold --seed abc",
            "--workload compile-cold --seed -1",
            "--workload compile-cold --seconds 1.5",
            "--workload compile-cold --seconds 0",
            "--workload compile-cold --trace yes",
            "--workload compile-cold --seed",
            "--workload compile-cold --seed 1 --seed 2",
            "--workload compile-cold --record out.json",
            "--compare ref.json --trace 1",
            "--compare ref.json --seconds 5",
            "--record out.json --runs 3",
            "--workload compile-cold extra",
            "--duration 5 --workload compile-cold",
        ] {
            assert!(parse_str(bad).is_err(), "accepted {bad:?}");
        }
    }
}
