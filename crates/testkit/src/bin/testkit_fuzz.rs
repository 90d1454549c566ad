//! Long-run fuzz driver and corpus replay tool.
//!
//! ```text
//! testkit-fuzz [--seed N] [--cases N] [--seconds N]
//!              [--corpus-dir DIR] [--no-shrink]
//! testkit-fuzz --replay FILE-OR-DIR
//! testkit-fuzz --validate-stats FILE | --validate-trace FILE
//! ```
//!
//! The `--validate-*` modes schema-check observability artifacts (the
//! CLI's `--stats=json` report and `--trace` output) via
//! [`twigm_testkit::obsjson`]; CI's obs-smoke stage uses them.
//!
//! One case in [`MALFORMED_EVERY`] is also broken by a seeded
//! malformation, and every driver must fail it with the error an
//! unprojected parse reports; a failure names the seed, the case index
//! and the malformation (it is not shrunk).
//!
//! The library is wall-clock free; this binary checks the `--seconds`
//! budget *between* cases only, so a given `(seed, case-index)` pair
//! always produces the same verdict regardless of the time budget.
//! Exits 1 when any violation is found (or a replayed case fails).

use std::path::{Path as FsPath, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use twigm_datagen::SplitMix64;
use twigm_testkit::corpus::{format_case, parse_case};
use twigm_testkit::runner::{malformed_case, replay_case, run_case, FuzzConfig, MALFORMED_EVERY};
use twigm_testkit::shrink::{shrink, FailingCase};

struct Args {
    seed: u64,
    cases: usize,
    seconds: Option<u64>,
    replay: Option<PathBuf>,
    corpus_dir: Option<PathBuf>,
    no_shrink: bool,
    validate_stats: Option<PathBuf>,
    validate_trace: Option<PathBuf>,
}

const USAGE: &str = "usage: testkit-fuzz [--seed N] [--cases N] [--seconds N] \
                     [--corpus-dir DIR] [--no-shrink] | --replay FILE-OR-DIR \
                     | --validate-stats FILE | --validate-trace FILE";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 0xC0FFEE,
        cases: 10_000,
        seconds: None,
        replay: None,
        corpus_dir: None,
        no_shrink: false,
        validate_stats: None,
        validate_trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                args.seed = parse_u64(&v)?;
            }
            "--cases" => {
                let v = value("--cases")?;
                args.cases = parse_u64(&v)? as usize;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = Some(parse_u64(&v)?);
            }
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--validate-stats" => {
                args.validate_stats = Some(PathBuf::from(value("--validate-stats")?));
            }
            "--validate-trace" => {
                args.validate_trace = Some(PathBuf::from(value("--validate-trace")?));
            }
            "--corpus-dir" => args.corpus_dir = Some(PathBuf::from(value("--corpus-dir")?)),
            "--no-shrink" => args.no_shrink = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = text.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        text.parse()
    };
    parsed.map_err(|_| format!("invalid number `{text}`"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("testkit-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.validate_stats {
        return validate(path, "stats", twigm_testkit::obsjson::validate_stats);
    }
    if let Some(path) = &args.validate_trace {
        let jsonl = path.extension().is_some_and(|e| e == "jsonl");
        let validator = if jsonl {
            twigm_testkit::obsjson::validate_trace_jsonl
        } else {
            twigm_testkit::obsjson::validate_trace_chrome
        };
        return validate(
            path,
            if jsonl { "jsonl trace" } else { "chrome trace" },
            validator,
        );
    }
    if let Some(path) = &args.replay {
        return replay(path);
    }
    fuzz(&args)
}

/// Schema-checks one observability artifact and reports PASS/FAIL.
fn validate(path: &FsPath, what: &str, check: fn(&str) -> Result<(), String>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("testkit-fuzz: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    match check(&text) {
        Ok(()) => {
            println!("PASS {} ({what})", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("FAIL {} ({what}): {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Replays one `.case` file, or every `*.case` in a directory.
fn replay(path: &FsPath) -> ExitCode {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = match std::fs::read_dir(path) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("testkit-fuzz: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.extension().is_some_and(|e| e == "case") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    if files.is_empty() {
        eprintln!("testkit-fuzz: no .case files under {}", path.display());
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("testkit-fuzz: cannot read {}: {e}", file.display());
                failed = true;
                continue;
            }
        };
        let verdict = parse_case(&text).and_then(|case| replay_case(&case));
        match verdict {
            Ok(violations) if violations.is_empty() => {
                println!("PASS {}", file.display());
            }
            Ok(violations) => {
                failed = true;
                println!("FAIL {}", file.display());
                for v in violations {
                    println!("  {v}");
                }
            }
            Err(e) => {
                failed = true;
                println!("FAIL {} (malformed: {e})", file.display());
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn fuzz(args: &Args) -> ExitCode {
    let cfg = FuzzConfig::default();
    let deadline = args
        .seconds
        .map(|s| Instant::now() + Duration::from_secs(s));
    let mut master = SplitMix64::seed_from_u64(args.seed);
    let mut failures = 0usize;
    let mut checks = 0u64;
    let mut ran = 0usize;

    for index in 0..args.cases {
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                break;
            }
        }
        let case_seed = master.next_u64();
        let (xml, query, violations, case_checks) = run_case(case_seed, &cfg.doc, &cfg.query);
        ran += 1;
        checks += case_checks;
        if index % MALFORMED_EVERY == 0 {
            checks += 1;
            if let (how, Some(v)) = malformed_case(case_seed, &xml, &query, &cfg.query) {
                failures += 1;
                eprintln!(
                    "case {index} (seed {:#x}, sub-seed {case_seed:#x}) malformed by {how:?}, \
                     query `{query}` FAILED:\n  {v}",
                    args.seed
                );
            }
        }
        if violations.is_empty() {
            continue;
        }

        failures += 1;
        eprintln!("case {index} (seed {case_seed:#x}) query `{query}` FAILED:");
        for v in &violations {
            eprintln!("  {v}");
        }
        let case = FailingCase {
            xml,
            query,
            kind: violations[0].kind,
        };
        let case = if args.no_shrink {
            case
        } else {
            shrink(
                &case,
                &twigm_testkit::runner::case_violations,
                cfg.shrink_budget,
            )
        };
        eprintln!("  reproduction: query `{}`", case.query);
        eprintln!("  xml: {}", String::from_utf8_lossy(&case.xml));
        if let Some(dir) = &args.corpus_dir {
            let comment = format!(
                "found by testkit-fuzz --seed {:#x} (case {index}, sub-seed {case_seed:#x})\n{}",
                args.seed, violations[0]
            );
            let body = format_case(
                &violations[0].kind.to_string(),
                &comment,
                &case.query.to_string(),
                &case.xml,
            );
            let file = dir.join(format!("seed{:x}-case{index}.case", args.seed));
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, body))
            {
                eprintln!("  (could not write corpus file {}: {e})", file.display());
            } else {
                eprintln!("  wrote {}", file.display());
            }
        }
    }

    println!(
        "testkit-fuzz: {ran} cases, {checks} checks, {failures} failures (seed {:#x})",
        args.seed
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
