//! Command line: `flockbench [run] --workload <name> --seed <n>
//! [--seconds <s>] [--trace [0|1]] [--smoke] [--out <dir>]` and
//! `flockbench diff <a.json> <b.json>`.

use crate::run::{default_out, RunArgs, DEFAULT_SECONDS};
use std::path::PathBuf;

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run(RunArgs),
    Diff { a: PathBuf, b: PathBuf },
}

pub const USAGE: &str = "usage:
  flockbench [run] --workload <serve_point|predict_scan|ingest_durable|scan_parts> --seed <n>
                   [--seconds <s>] [--trace [0|1]] [--smoke] [--out <dir>]
  flockbench diff <a.json> <b.json>";

pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str).peekable();
    if it.peek() == Some(&"diff") {
        it.next();
        return match (it.next(), it.next(), it.next()) {
            (Some(a), Some(b), None) => Ok(Command::Diff {
                a: a.into(),
                b: b.into(),
            }),
            _ => Err("diff takes exactly two files".to_string()),
        };
    }
    if it.peek() == Some(&"run") {
        it.next();
    }
    let (mut workload, mut seed) = (None, None);
    let mut run = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: default_out(),
    };
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag {
            "--workload" => workload = Some(value("a name")?.to_string()),
            "--seed" => {
                let v = value("a whole number")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed: '{v}' is not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                run.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: '{v}' is not a number of seconds"))?;
            }
            "--out" => run.out = value("a directory")?.into(),
            "--smoke" => run.smoke = true,
            // The driver passes `--trace 0|1`; by hand the bare flag means 1.
            "--trace" => {
                run.trace = match it.peek() {
                    Some(&"0") => {
                        it.next();
                        false
                    }
                    Some(&"1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    run.seed = seed.ok_or("--seed is required")?;
    Ok(Command::Run(run))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_form_and_the_hand_form() {
        let Command::Run(r) = parse(&args(
            "--workload scan_parts --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap() else {
            panic!("a run")
        };
        assert_eq!(
            (r.workload.as_str(), r.seed, r.seconds, r.trace, r.smoke),
            ("scan_parts", 7, 10.0, false, false)
        );
        let Command::Run(r) = parse(&args(
            "run --workload serve_point --seed 1 --trace --smoke --out x",
        ))
        .unwrap() else {
            panic!("a run")
        };
        assert!(r.trace && r.smoke && r.out.as_os_str() == "x");
        let Command::Run(r) = parse(&args("--trace 1 --workload serve_point --seed 1")).unwrap()
        else {
            panic!("a run")
        };
        assert!(r.trace);
        assert_eq!(
            parse(&args("diff a.json b.json")).unwrap(),
            Command::Diff {
                a: "a.json".into(),
                b: "b.json".into()
            }
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            "--seed 1",
            "--workload x",
            "--workload x --seed -1",
            "--workload x --seed 1 --seconds nan",
            "--workload x --seed 1 --frobnicate",
            "diff a.json",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
