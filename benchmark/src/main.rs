//! `proxbench` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! proxbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--results DIR]
//! proxbench compare BASE.json CANDIDATE.json
//! proxbench child ...        (one round; started by `run`)
//! ```

mod child;
mod compare;
mod host;
mod jsonw;
mod metrics;
mod probes;
mod report;
mod rng;
mod runner;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  proxbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--results DIR]
  proxbench compare BASE.json CANDIDATE.json";

/// Pulls `--name value` pairs and bare `--flag`s out of an argument list.
struct Args(Vec<String>);

impl Args {
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read `{v}`")),
            None => Ok(None),
        }
    }

    fn switch(&mut self, name: &str) -> Result<bool, String> {
        match self.value(name)?.as_deref() {
            None => Ok(false),
            Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("{name} takes 0 or 1, not `{v}`")),
        }
    }

    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

fn run_command(mut args: Args) -> Result<ExitCode, String> {
    let smoke = args.flag("--smoke");
    let workload = args.value("--workload")?;
    if let Some(w) = &workload {
        if !workloads::WORKLOADS.iter().any(|known| known.0 == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    let run = runner::RunArgs {
        workloads: workload.clone().into_iter().collect(),
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds: args
            .parsed("--seconds")?
            .unwrap_or(if smoke { 1.0 } else { 10.0 }),
        traced: args.switch("--trace")?,
        smoke,
    };
    let results: Option<PathBuf> = args.value("--results")?.map(PathBuf::from);
    args.done()?;

    let report = runner::run(&run);
    print!("{}", report.table());
    if let Some(dir) = results {
        let write = |file: &str, text: String| {
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(dir.join(file), text))
                .map_err(|e| format!("cannot write {}: {e}", dir.join(file).display()))
        };
        write("latest.json", report.to_json())?;
        if run.traced {
            write("latest.trace.json", report.trace_json())?;
        }
        println!("\nwrote {}", dir.join("latest.json").display());
    }
    if workload.is_some() {
        // The acceptance driver reads the last line of standard output.
        println!("{}", report.contract_line());
    }
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("proxbench: outputs were wrong or rounds failed; see ERROR lines above");
        ExitCode::FAILURE
    })
}

fn child_command(mut args: Args, started: Instant) -> Result<ExitCode, String> {
    let child = child::ChildArgs {
        workload: args.value("--workload")?.ok_or("child needs --workload")?,
        seed: args.parsed("--seed")?.unwrap_or(1),
        smoke: args.flag("--smoke"),
        traced: args.switch("--trace")?,
        threads: args.parsed("--threads")?.unwrap_or(1),
        mode: match args.value("--mode")? {
            None => child::Mode::Round,
            Some(m) => child::Mode::parse(&m).ok_or(format!("unknown child mode `{m}`"))?,
        },
    };
    args.done()?;
    Ok(ExitCode::from(child::run(&child, started) as u8))
}

fn compare_command(args: Args) -> Result<ExitCode, String> {
    let [base, candidate] = args.0.as_slice() else {
        return Err("compare takes two result files".to_owned());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| report::load(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, regressed) = compare::compare(&load(base)?, &load(candidate)?);
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    // Set-up time is measured from here: the first thing the process does.
    let started = Instant::now();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let outcome = match command.as_str() {
        "run" => run_command(Args(argv)),
        "child" => child_command(Args(argv), started),
        "compare" => compare_command(Args(argv)),
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("proxbench: {e}");
        ExitCode::from(2)
    })
}
