//! `psim-bench`: regenerate, check or take a quick look at the committed
//! results of the evaluation (see the crate docs and the manifest).

use psim_bench::manifest::MANIFEST;
use psim_bench::{run, Ctx, Mode};
use psim_sparse::suite::by_name;
use std::process::ExitCode;

const USAGE: &str =
    "usage: psim-bench [--check] [--only <entry>[,<entry>...]] [--scale <f>] [--matrix <name>]

  (no option)      regenerate every committed artifact in place
  --check          regenerate in memory; fail on any byte difference or gate violation
  --only <entries> restrict to manifest entries (comma-separated)
  --scale <f>      ad hoc: matrix scale relative to Table IX; prints, writes nothing
  --matrix <name>  ad hoc: restrict figures to one Table IX matrix; prints, writes nothing";

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mut check, mut only, mut scale, mut matrix) = (false, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--only" | "--matrix" => {
                let Some(value) = args.next() else {
                    return fail(&format!("{arg} needs a value"));
                };
                if arg == "--only" {
                    only = Some(value);
                } else if by_name(&value).is_some() {
                    matrix = Some(value);
                } else {
                    return fail(&format!("no Table IX matrix {value:?}"));
                }
            }
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 && s.is_finite() => scale = Some(s),
                _ => return fail("--scale needs a positive number"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument {other:?}")),
        }
    }
    let mut entries = MANIFEST.to_vec();
    if let Some(names) = &only {
        let names: Vec<&str> = names.split(',').collect();
        if let Some(bad) = names
            .iter()
            .find(|n| !MANIFEST.iter().any(|e| e.name == **n))
        {
            let known: Vec<&str> = MANIFEST.iter().map(|e| e.name).collect();
            return fail(&format!("no entry {bad:?}; entries: {}", known.join(", ")));
        }
        entries.retain(|e| names.contains(&e.name));
    }
    let ad_hoc = scale.is_some() || matrix.is_some();
    let mode = match (check, ad_hoc) {
        (true, true) => return fail("--check compares committed artifacts; drop --scale/--matrix"),
        (true, false) => Mode::Check,
        (false, false) => Mode::Write,
        (false, true) => Mode::Print,
    };
    if run(&entries, &Ctx::new(mode, scale, matrix)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
