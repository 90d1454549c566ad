//! Query execution for the CLI: engine selection, output modes, stats,
//! tracing, and progress reporting.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use twigm::attrs::AttrCollector;
use twigm::engine::{drive, NoTelemetry, StreamProgress, Telemetry};
use twigm::fragments::FragmentCollector;
use twigm::multi::MultiTwigM;
use twigm::pipeline::{run_engine_pipelined, run_multi_sharded, shard_queries, PipelineOptions};
use twigm::{
    BranchM, Engine, EngineStats, PathM, PipelineStats, StreamEngine, StreamTelemetry, TwigM,
};
use twigm_baselines::{inmem, LazyDfa, NaiveEnum};
use twigm_obs::trace::TransitionTracer;
use twigm_obs::{format_progress, StatsReport};
use twigm_sax::{NodeId, SaxReader};
use twigm_xpath::Path;

use crate::args::{Args, EngineChoice, OutputMode, StatsMode};

/// Events between `--progress` heartbeats.
const PROGRESS_INTERVAL: u64 = 4096;

/// Maps [`Engine::machine_name`] ("TwigM") to the `--engine` flag
/// vocabulary ("twig") so stats reports use one naming scheme.
fn engine_flag_name(machine_name: &str) -> &str {
    match machine_name {
        "PathM" => "path",
        "BranchM" => "branch",
        "TwigM" => "twig",
        other => other,
    }
}

/// Wall-clock measurements of one run, alongside the driver's stream
/// accounting when the telemetry observer was on.
struct RunMeta {
    telemetry: Option<StreamTelemetry>,
    duration: Duration,
    time_to_first_result: Option<Duration>,
    pipeline: Option<PipelineStats>,
}

/// The engine after a stream, plus everything measured along the way.
struct DriveOutcome<E> {
    ids: Vec<NodeId>,
    engine: E,
    meta: RunMeta,
}

/// Whether this invocation needs the telemetry observer (byte/event
/// accounting, first-result latency, progress callbacks).
fn wants_telemetry(args: &Args) -> bool {
    args.progress || matches!(args.stats, StatsMode::Json | StatsMode::Pretty)
}

/// Streams `input` through `engine` on the batched pipeline when
/// `--threads` asks for it, else on the serial driver, and drains the
/// results.
fn stream<E: StreamEngine>(
    args: &Args,
    mut engine: E,
    input: &mut (dyn Read + Send),
) -> Result<DriveOutcome<E>, String> {
    if args.threads > 1 {
        // Batched producer/consumer pipeline. Args::parse restricts
        // `--threads` to modes the batch driver can serve (ids/count,
        // machine engines, no trace/progress), so telemetry never
        // combines with it.
        let start = Instant::now();
        let opts = PipelineOptions::default();
        let (ids, engine, pipeline) =
            run_engine_pipelined(engine, input, &opts).map_err(|e| e.to_string())?;
        return Ok(DriveOutcome {
            ids,
            engine,
            meta: RunMeta {
                telemetry: None,
                duration: start.elapsed(),
                time_to_first_result: None,
                pipeline: Some(pipeline),
            },
        });
    }
    let meta = stream_serial(args, &mut engine, input)?;
    let ids = engine.take_results();
    Ok(DriveOutcome { ids, engine, meta })
}

/// Streams `input` through `engine` on the event driver, with the
/// telemetry observer when the flags need it and the no-op one
/// otherwise, so `--stats` (text) keeps the unobserved hot path. The
/// results stay in the engine.
fn stream_serial<E: StreamEngine + ?Sized>(
    args: &Args,
    engine: &mut E,
    input: &mut (dyn Read + Send),
) -> Result<RunMeta, String> {
    let start = Instant::now();
    let mut reader = SaxReader::new(input);
    let mut first: Option<Duration> = None;
    let telemetry = if wants_telemetry(args) {
        let mut next_heartbeat = PROGRESS_INTERVAL;
        let mut observer = Telemetry::new(1, |p: &StreamProgress| {
            if first.is_none() && p.results > 0 {
                first = Some(start.elapsed());
            }
            if args.progress && p.events >= next_heartbeat {
                next_heartbeat = p.events + PROGRESS_INTERVAL;
                eprintln!("twigm: {}", format_progress(p, start.elapsed()));
            }
        });
        drive(engine, &mut reader, &mut observer).map_err(|e| e.to_string())?;
        Some(observer.finish(&reader))
    } else {
        drive(engine, &mut reader, &mut NoTelemetry).map_err(|e| e.to_string())?;
        None
    };
    Ok(RunMeta {
        telemetry,
        duration: start.elapsed(),
        time_to_first_result: first,
        pipeline: None,
    })
}

/// Runs a single query, prints per `args.output`, returns the match
/// count.
pub fn run_single(
    args: &Args,
    input: &mut (dyn Read + Send),
    out: &mut dyn Write,
) -> Result<u64, String> {
    // A `|` union runs through the multi-query engine with set-union
    // output.
    let branches = twigm_xpath::parse_union(&args.queries[0]).map_err(|e| e.to_string())?;
    if branches.len() > 1 {
        return run_union(args, &branches, input, out);
    }
    let query = parse_query(&args.queries[0])?;
    if args.output == OutputMode::Values && query.attr.is_none() {
        return Err("--values requires a query ending in `/@attr`".into());
    }
    if args.trace.is_some() {
        return run_traced(args, &query, input, out);
    }
    let attr = query.attr.clone();
    match args.engine {
        EngineChoice::Dom => run_dom(args, &query, input, out),
        EngineChoice::Auto => {
            let engine = Engine::new(&query).map_err(|e| e.to_string())?;
            let name = engine_flag_name(engine.machine_name());
            run_streaming(args, name, engine, attr, input, out)
        }
        EngineChoice::Twig => {
            let engine = TwigM::new(&query).map_err(|e| e.to_string())?;
            run_streaming(args, "twig", engine, attr, input, out)
        }
        EngineChoice::PathM => {
            if !query.is_predicate_free() {
                return Err("--engine path requires a predicate-free query".into());
            }
            let engine = PathM::new(&query).map_err(|e| e.to_string())?;
            run_streaming(args, "path", engine, attr, input, out)
        }
        EngineChoice::BranchM => {
            if !query.is_branch_only() {
                return Err("--engine branch requires an XP{/,[]} query".into());
            }
            let engine = BranchM::new(&query).map_err(|e| e.to_string())?;
            run_streaming(args, "branch", engine, attr, input, out)
        }
        EngineChoice::Naive => {
            let engine = NaiveEnum::new(&query).map_err(|e| e.to_string())?;
            run_streaming(args, "naive", engine, attr, input, out)
        }
        EngineChoice::Dfa => {
            if !query.is_predicate_free() {
                return Err(
                    "--engine dfa requires a predicate-free query (a DFA cannot \
                     evaluate predicates; see the paper, §1)"
                        .into(),
                );
            }
            let engine = LazyDfa::new(&query).map_err(|e| e.to_string())?;
            run_streaming(args, "dfa", engine, attr, input, out)
        }
    }
}

/// A `a | b` union: every branch compiles into the multi-query engine
/// and the result sets merge. Rides the same stream/stats path as the
/// single-query modes, so `--stats`/`--progress` work here too.
fn run_union(
    args: &Args,
    branches: &[Path],
    input: &mut (dyn Read + Send),
    out: &mut dyn Write,
) -> Result<u64, String> {
    if args.engine != EngineChoice::Auto && args.engine != EngineChoice::Twig {
        return Err("union queries run on the TwigM engine only".into());
    }
    if matches!(args.output, OutputMode::Fragments | OutputMode::Values) {
        return Err("--fragments/--values are not supported for union queries".into());
    }
    if args.trace.is_some() {
        return Err("--trace is not supported for union queries".into());
    }
    if args.threads > 1 {
        return run_union_sharded(args, branches, input, out);
    }
    let mut engine = MultiTwigM::new();
    for branch in branches {
        engine.add_query(branch).map_err(|e| e.to_string())?;
    }
    let outcome = stream(args, engine, input)?;
    // Set-union semantics: sort into document order, drop ids matched
    // by several branches.
    let mut ids = outcome.ids;
    ids.sort_unstable();
    ids.dedup();
    match args.output {
        OutputMode::Count => {
            writeln!(out, "{}", ids.len()).map_err(|e| e.to_string())?;
        }
        _ => {
            for id in &ids {
                writeln!(out, "{id}").map_err(|e| e.to_string())?;
            }
        }
    }
    let engine = outcome.engine;
    report_stats(
        args,
        "multi",
        engine.stats(),
        StreamEngine::machine_size(&engine),
        &outcome.meta,
    );
    Ok(ids.len() as u64)
}

/// The threaded union path: branches are partitioned round-robin over
/// `threads - 1` shard engines, each fed the batched event stream, and
/// the per-shard result sets merge into document order — byte-identical
/// to the serial union output.
fn run_union_sharded(
    args: &Args,
    branches: &[Path],
    input: &mut (dyn Read + Send),
    out: &mut dyn Write,
) -> Result<u64, String> {
    let start = Instant::now();
    let shards = shard_queries(branches, args.threads - 1).map_err(|e| e.to_string())?;
    let outcome =
        run_multi_sharded(shards, input, &PipelineOptions::default()).map_err(|e| e.to_string())?;
    match args.output {
        OutputMode::Count => {
            writeln!(out, "{}", outcome.ids.len()).map_err(|e| e.to_string())?;
        }
        _ => {
            for id in &outcome.ids {
                writeln!(out, "{id}").map_err(|e| e.to_string())?;
            }
        }
    }
    report_stats(
        args,
        "multi",
        &outcome.stats,
        Some(outcome.machine_size),
        &RunMeta {
            telemetry: None,
            duration: start.elapsed(),
            time_to_first_result: None,
            pipeline: Some(outcome.pipeline),
        },
    );
    Ok(outcome.ids.len() as u64)
}

/// Runs one query with a [`TransitionTracer`] attached and writes the
/// recorded transitions to `args.trace` — JSON Lines when the file name
/// ends in `.jsonl`, Chrome trace-event JSON otherwise.
fn run_traced(
    args: &Args,
    query: &Path,
    input: &mut (dyn Read + Send),
    out: &mut dyn Write,
) -> Result<u64, String> {
    let tracer = TransitionTracer::new();
    let engine: Engine<TransitionTracer> = match args.engine {
        EngineChoice::Auto => Engine::with_observer(query, tracer).map_err(|e| e.to_string())?,
        EngineChoice::Twig => {
            Engine::Twig(TwigM::with_observer(query, tracer).map_err(|e| e.to_string())?)
        }
        EngineChoice::PathM => {
            if !query.is_predicate_free() {
                return Err("--engine path requires a predicate-free query".into());
            }
            Engine::Path(PathM::with_observer(query, tracer).map_err(|e| e.to_string())?)
        }
        EngineChoice::BranchM => {
            if !query.is_branch_only() {
                return Err("--engine branch requires an XP{/,[]} query".into());
            }
            Engine::Branch(BranchM::with_observer(query, tracer).map_err(|e| e.to_string())?)
        }
        // Rejected in Args::parse; defensive here.
        _ => return Err("--trace requires a machine engine (auto|twig|path|branch)".into()),
    };
    let name = engine_flag_name(engine.machine_name());
    let machine = engine.machine().clone();
    let outcome = stream(args, engine, input)?;
    match args.output {
        OutputMode::Count => {
            writeln!(out, "{}", outcome.ids.len()).map_err(|e| e.to_string())?;
        }
        _ => {
            for id in &outcome.ids {
                writeln!(out, "{id}").map_err(|e| e.to_string())?;
            }
        }
    }
    let engine = outcome.engine;
    report_stats(
        args,
        name,
        engine.stats(),
        StreamEngine::machine_size(&engine),
        &outcome.meta,
    );
    let trace_path = args.trace.as_deref().expect("checked by caller");
    let tracer = engine.into_observer();
    if tracer.dropped() > 0 {
        eprintln!(
            "twigm: trace limit reached; {} transition(s) not recorded",
            tracer.dropped()
        );
    }
    let text = if trace_path.ends_with(".jsonl") {
        tracer.to_jsonl(Some(&machine))
    } else {
        tracer.to_chrome_trace(Some(&machine))
    };
    std::fs::write(trace_path, text).map_err(|e| format!("cannot write {trace_path}: {e}"))?;
    Ok(outcome.ids.len() as u64)
}

fn run_streaming<E: StreamEngine>(
    args: &Args,
    name: &str,
    engine: E,
    attr: Option<String>,
    input: &mut (dyn Read + Send),
    out: &mut dyn Write,
) -> Result<u64, String> {
    let io_err = |e: std::io::Error| e.to_string();
    match args.output {
        OutputMode::Values => {
            let attr = attr.expect("validated in run_single");
            let collector = AttrCollector::new(engine, attr);
            let outcome = stream(args, collector, input)?;
            let mut collector = outcome.engine;
            let values = collector.take_values();
            let count = values.len() as u64;
            for (_, value) in values {
                writeln!(out, "{value}").map_err(io_err)?;
            }
            report_stats(
                args,
                name,
                collector.stats(),
                StreamEngine::machine_size(&collector),
                &outcome.meta,
            );
            Ok(count)
        }
        OutputMode::Fragments => {
            let collector = FragmentCollector::new(engine);
            let outcome = stream(args, collector, input)?;
            let mut collector = outcome.engine;
            let fragments = collector.take_fragments();
            let count = fragments.len() as u64;
            for (_, fragment) in fragments {
                writeln!(out, "{fragment}").map_err(io_err)?;
            }
            report_stats(
                args,
                name,
                collector.stats(),
                StreamEngine::machine_size(&collector),
                &outcome.meta,
            );
            Ok(count)
        }
        OutputMode::Ids => {
            let outcome = stream(args, engine, input)?;
            for id in &outcome.ids {
                writeln!(out, "{id}").map_err(io_err)?;
            }
            let engine = outcome.engine;
            report_stats(
                args,
                name,
                engine.stats(),
                StreamEngine::machine_size(&engine),
                &outcome.meta,
            );
            Ok(outcome.ids.len() as u64)
        }
        OutputMode::Count => {
            let outcome = stream(args, engine, input)?;
            writeln!(out, "{}", outcome.ids.len()).map_err(io_err)?;
            let engine = outcome.engine;
            report_stats(
                args,
                name,
                engine.stats(),
                StreamEngine::machine_size(&engine),
                &outcome.meta,
            );
            Ok(outcome.ids.len() as u64)
        }
    }
}

fn run_dom(
    args: &Args,
    query: &Path,
    input: &mut (dyn Read + Send),
    out: &mut dyn Write,
) -> Result<u64, String> {
    if matches!(args.stats, StatsMode::Json | StatsMode::Pretty) {
        return Err("--stats=json/pretty report streaming-engine counters; \
             --engine dom supports the plain --stats line only"
            .into());
    }
    if args.progress {
        return Err("--progress is not supported with --engine dom (no streaming pass)".into());
    }
    let io_err = |e: std::io::Error| e.to_string();
    let doc = inmem::Document::parse(input).map_err(|e| e.to_string())?;
    let ids = inmem::InMemEval::new(&doc).evaluate(query);
    match args.output {
        OutputMode::Count => writeln!(out, "{}", ids.len()).map_err(io_err)?,
        OutputMode::Ids => {
            for id in &ids {
                writeln!(out, "{id}").map_err(io_err)?;
            }
        }
        OutputMode::Fragments => {
            return Err("--fragments is not supported with --engine dom".into())
        }
        OutputMode::Values => return Err("--values is not supported with --engine dom".into()),
    }
    if args.stats != StatsMode::Off {
        eprintln!(
            "twigm: dom: {} element(s) materialized, depth {}",
            doc.len(),
            doc.depth()
        );
    }
    Ok(ids.len() as u64)
}

/// Runs several standing queries via [`MultiTwigM`]; output lines are
/// `Q<i><TAB><node id>` in decision order.
pub fn run_multi(
    args: &Args,
    input: &mut (dyn Read + Send),
    out: &mut dyn Write,
) -> Result<u64, String> {
    if args.engine != EngineChoice::Auto && args.engine != EngineChoice::Twig {
        return Err("multiple queries run on the TwigM engine only".into());
    }
    let mut engine = MultiTwigM::new();
    if args.filter {
        engine = engine.filter_mode();
    }
    for q in &args.queries {
        let query = parse_query(q)?;
        engine.add_query(&query).map_err(|e| e.to_string())?;
    }
    let meta = stream_serial(args, &mut engine, input)?;
    let results = engine.take_tagged_results();
    let count = results.len() as u64;
    match args.output {
        OutputMode::Count => {
            writeln!(out, "{count}").map_err(|e| e.to_string())?;
        }
        _ if args.filter => {
            for r in results {
                writeln!(out, "Q{}", r.query).map_err(|e| e.to_string())?;
            }
        }
        _ => {
            for r in results {
                writeln!(out, "Q{}\t{}", r.query, r.node).map_err(|e| e.to_string())?;
            }
        }
    }
    report_stats(
        args,
        "multi",
        engine.stats(),
        StreamEngine::machine_size(&engine),
        &meta,
    );
    Ok(count)
}

fn parse_query(text: &str) -> Result<Path, String> {
    twigm_xpath::parse(text).map_err(|e| e.to_string())
}

/// Emits the stats in the selected mode on stderr. `Text` keeps the
/// historic one-line format; `Json`/`Pretty` render a [`StatsReport`]
/// with throughput and latency from the telemetry observer.
fn report_stats(
    args: &Args,
    engine: &str,
    stats: &EngineStats,
    machine_size: Option<usize>,
    meta: &RunMeta,
) {
    match args.stats {
        StatsMode::Off => {}
        StatsMode::Text => {
            eprintln!(
                "twigm: {} events, {} pushes, {} pops, {} probes, peak {} entries, \
                 {} candidate merges, {} result(s)",
                stats.events(),
                stats.pushes,
                stats.pops,
                stats.qualification_probes + stats.upload_probes,
                stats.peak_entries,
                stats.candidates_merged,
                stats.results
            );
        }
        StatsMode::Json | StatsMode::Pretty => {
            let report = StatsReport {
                engine: engine.to_string(),
                stats: stats.clone(),
                telemetry: meta.telemetry.clone(),
                machine_size,
                duration: meta.duration,
                time_to_first_result: meta.time_to_first_result,
                metrics: None,
                pipeline: meta.pipeline.clone(),
            };
            if args.stats == StatsMode::Json {
                eprintln!("{}", report.to_json());
            } else {
                eprint!("{}", report.to_pretty());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn run(argv: &[&str], xml: &str) -> (String, u64) {
        let args = Args::parse(argv.iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        let mut input = xml.as_bytes();
        let mut out = Vec::new();
        let count = if args.queries.len() > 1 {
            run_multi(&args, &mut input, &mut out).unwrap()
        } else {
            run_single(&args, &mut input, &mut out).unwrap()
        };
        (String::from_utf8(out).unwrap(), count)
    }

    #[test]
    fn ids_mode() {
        let (out, count) = run(&["//a/b"], "<r><a><b/></a><b/></r>");
        assert_eq!(out, "2\n");
        assert_eq!(count, 1);
    }

    #[test]
    fn count_mode() {
        let (out, count) = run(&["-c", "//b"], "<r><a><b/></a><b/></r>");
        assert_eq!(out, "2\n");
        assert_eq!(count, 2);
    }

    #[test]
    fn fragments_mode() {
        let (out, _) = run(&["--fragments", "//a[b]"], "<r><a><b>x</b></a></r>");
        assert_eq!(out, "<a><b>x</b></a>\n");
    }

    #[test]
    fn every_engine_choice_runs() {
        for engine in ["auto", "twig", "naive", "dom"] {
            let (out, _) = run(&["--engine", engine, "-c", "//a[b]"], "<r><a><b/></a></r>");
            assert_eq!(out, "1\n", "engine {engine}");
        }
        for engine in ["path", "dfa"] {
            let (out, _) = run(&["--engine", engine, "-c", "//a"], "<r><a/></r>");
            assert_eq!(out, "1\n", "engine {engine}");
        }
        let (out, _) = run(
            &["--engine", "branch", "-c", "/r/a[b]"],
            "<r><a><b/></a></r>",
        );
        assert_eq!(out, "1\n");
    }

    #[test]
    fn stats_json_does_not_change_output() {
        // The telemetry observer must not change the results, in any
        // output mode.
        let xml = r#"<r><a k="1"><b>x</b></a><a k="2"/></r>"#;
        for mode in [&["-c", "//a[b]"][..], &["--fragments", "//a[b]"][..]] {
            let plain = run(mode, xml);
            let mut with_stats = vec!["--stats=json"];
            with_stats.extend_from_slice(mode);
            assert_eq!(run(&with_stats, xml), plain, "{mode:?}");
        }
        let plain = run(&["--values", "//a/@k"], xml);
        assert_eq!(run(&["--stats=pretty", "--values", "//a/@k"], xml), plain);
    }

    #[test]
    fn union_goes_through_the_stats_path() {
        let (out, count) = run(&["--stats=json", "//a | //b[c]"], "<r><a/><b><c/></b></r>");
        assert_eq!(out, "1\n2\n");
        assert_eq!(count, 2);
        let (out, _) = run(&["-c", "//a | //a"], "<r><a/><a/></r>");
        assert_eq!(out, "2\n", "overlapping branches deduplicate");
    }

    #[test]
    fn traced_run_writes_the_requested_format() {
        let dir = std::env::temp_dir().join(format!("twigm-run-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let chrome = dir.join("t.json");
        let jsonl = dir.join("t.jsonl");
        let xml = "<r><a><b/></a></r>";
        let (out, _) = run(&["--trace", chrome.to_str().unwrap(), "-c", "//a[b]"], xml);
        assert_eq!(out, "1\n");
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        assert!(chrome_text.starts_with(r#"{"traceEvents":["#));
        let (out, _) = run(&["--trace", jsonl.to_str().unwrap(), "//a[b]"], xml);
        assert_eq!(out, "1\n", "the matching <a> is node 1");
        let jsonl_text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(jsonl_text.lines().count() > 4);
        assert!(jsonl_text.contains(r#""kind":"result""#));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_restrictions_are_enforced() {
        let args = Args::parse(["--engine", "dfa", "//a[b]"].iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        let mut input = &b"<r/>"[..];
        let mut out = Vec::new();
        let err = run_single(&args, &mut input, &mut out).unwrap_err();
        assert!(err.contains("predicate-free"));
    }

    #[test]
    fn trace_rejects_unions_and_dom_rejects_rich_stats() {
        let args = Args::parse(
            ["--trace", "/tmp/t.json", "//a | //b"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap()
        .unwrap();
        let mut input = &b"<r/>"[..];
        let mut out = Vec::new();
        let err = run_single(&args, &mut input, &mut out).unwrap_err();
        assert!(err.contains("union"), "{err}");

        let args = Args::parse(
            ["--stats=json", "--engine", "dom", "//a"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap()
        .unwrap();
        let mut input = &b"<r/>"[..];
        let mut out = Vec::new();
        let err = run_single(&args, &mut input, &mut out).unwrap_err();
        assert!(err.contains("dom"), "{err}");
    }

    #[test]
    fn multi_query_output_is_tagged() {
        let (out, count) = run(&["-q", "//a", "-q", "//b"], "<r><a/><b/></r>");
        assert_eq!(count, 2);
        assert!(out.contains("Q0\t1"));
        assert!(out.contains("Q1\t2"));
    }

    #[test]
    fn threads_match_serial_output() {
        // `--threads N` must be invisible in the output: same ids, same
        // order, for single queries, unions, and count mode.
        let mut xml = String::from("<r>");
        for i in 0..50 {
            xml.push_str(&format!(
                "<a k=\"{i}\"><x><b>deep</b></x><b>t</b><c/></a><junk><c/></junk>"
            ));
        }
        xml.push_str("</r>");
        for query in ["//a/b", "//a[b]/c", "//a[b = 't']/c", "//a | //junk/c"] {
            let serial = run(&[query], &xml);
            for threads in ["2", "4"] {
                assert_eq!(
                    run(&["--threads", threads, query], &xml),
                    serial,
                    "--threads {threads} changed output for {query}"
                );
            }
            let serial_count = run(&["-c", query], &xml);
            assert_eq!(
                run(&["--threads", "4", "-c", query], &xml),
                serial_count,
                "count mode for {query}"
            );
        }
    }

    #[test]
    fn threads_stats_json_reports_the_pipeline() {
        let args = Args::parse(
            ["--threads", "2", "--stats=json", "-c", "//a"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap()
        .unwrap();
        let mut input = &b"<r><a/><skipme/></r>"[..];
        let mut out = Vec::new();
        // Stats land on stderr (not captured here); this exercises the
        // pipelined drive + report path end to end without panicking.
        let count = run_single(&args, &mut input, &mut out).unwrap();
        assert_eq!(count, 1);
        assert_eq!(String::from_utf8(out).unwrap(), "1\n");
    }

    #[test]
    fn threads_surface_malformed_xml() {
        let args = Args::parse(["--threads", "2", "//a"].iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        let mut input = &b"<r><a>"[..];
        let mut out = Vec::new();
        assert!(run_single(&args, &mut input, &mut out).is_err());
    }

    #[test]
    fn bad_query_is_an_error() {
        let args = Args::parse(["not-a-query"].iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        let mut input = &b"<r/>"[..];
        let mut out = Vec::new();
        assert!(run_single(&args, &mut input, &mut out).is_err());
    }

    #[test]
    fn malformed_xml_is_an_error() {
        let args = Args::parse(["//a"].iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        let mut input = &b"<r>"[..];
        let mut out = Vec::new();
        assert!(run_single(&args, &mut input, &mut out).is_err());
    }
}
