//! End-to-end tests of the `twigm` binary: spawn the real executable,
//! check stdout/stderr/exit codes.

use std::io::Write;
use std::process::{Command, Stdio};

fn twigm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_twigm"))
}

fn run_with_stdin(args: &[&str], stdin: &[u8]) -> (String, String, i32) {
    let mut child = twigm()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn twigm");
    // The process may exit before reading stdin (e.g. a bad flag), so a
    // broken pipe here is expected, not a failure.
    let _ = child.stdin.take().expect("stdin piped").write_all(stdin);
    let output = child.wait_with_output().expect("twigm runs");
    (
        String::from_utf8(output.stdout).expect("utf8 stdout"),
        String::from_utf8(output.stderr).expect("utf8 stderr"),
        output.status.code().unwrap_or(-1),
    )
}

#[test]
fn ids_from_stdin() {
    let (out, _, code) = run_with_stdin(&["//a/b"], b"<r><a><b/></a><b/></r>");
    assert_eq!(out, "2\n");
    assert_eq!(code, 0);
}

#[test]
fn count_and_fragments() {
    let xml = b"<r><a><b>hi</b></a><a/></r>";
    let (out, _, _) = run_with_stdin(&["--count", "//a"], xml);
    assert_eq!(out, "2\n");
    let (out, _, _) = run_with_stdin(&["--fragments", "//a[b]"], xml);
    assert_eq!(out, "<a><b>hi</b></a>\n");
}

#[test]
fn no_match_exit_code_is_one() {
    let (out, _, code) = run_with_stdin(&["//zzz"], b"<r/>");
    assert_eq!(out, "");
    assert_eq!(code, 1);
}

#[test]
fn errors_exit_two() {
    // Bad query.
    let (_, err, code) = run_with_stdin(&["("], b"<r/>");
    assert_eq!(code, 2);
    assert!(err.contains("twigm:"));
    // Malformed XML.
    let (_, _, code) = run_with_stdin(&["//a"], b"<r>");
    assert_eq!(code, 2);
    // Missing file.
    let (_, _, code) = run_with_stdin(&["//a", "/nonexistent/file.xml"], b"");
    assert_eq!(code, 2);
    // Unknown flag.
    let (_, _, code) = run_with_stdin(&["--frobnicate", "//a"], b"");
    assert_eq!(code, 2);
}

#[test]
fn file_argument() {
    let dir = std::env::temp_dir().join(format!("twigm-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.xml");
    std::fs::write(&path, b"<r><x/><x/><x/></r>").unwrap();
    let (out, _, code) = run_with_stdin(&["-c", "//x", path.to_str().unwrap()], b"");
    assert_eq!(out, "3\n");
    assert_eq!(code, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_go_to_stderr() {
    let (out, err, _) = run_with_stdin(&["--stats", "-c", "//a"], b"<r><a/></r>");
    assert_eq!(out, "1\n");
    assert!(err.contains("events"));
    assert!(err.contains("peak"));
}

#[test]
fn multi_query_mode() {
    let (out, _, code) = run_with_stdin(
        &["-q", "//a", "-q", "//b[c]"],
        b"<r><a/><b><c/></b><b/></r>",
    );
    assert_eq!(code, 0);
    assert!(out.contains("Q0\t1"));
    assert!(out.contains("Q1\t2"));
    assert_eq!(out.lines().count(), 2);
}

#[test]
fn help_prints_usage() {
    let (out, _, code) = run_with_stdin(&["--help"], b"");
    assert!(out.contains("USAGE"));
    assert_eq!(code, 0);
}

#[test]
fn dom_engine_cross_checks_twig() {
    let xml = b"<r><a><b/><c/></a><a><b/></a></r>";
    let (twig_out, _, _) = run_with_stdin(&["--engine", "twig", "//a[c]/b"], xml);
    let (dom_out, _, _) = run_with_stdin(&["--engine", "dom", "//a[c]/b"], xml);
    assert_eq!(twig_out, dom_out);
}

#[test]
fn values_mode_prints_attribute_values() {
    let xml = br#"<bib><book year="1999"/><book year="2006"><title/></book></bib>"#;
    let (out, _, code) = run_with_stdin(&["--values", "//book/@year"], xml);
    assert_eq!(out, "1999\n2006\n");
    assert_eq!(code, 0);
    let (out, _, _) = run_with_stdin(&["--values", "//book[title]/@year"], xml);
    assert_eq!(out, "2006\n");
    // --values without an attr query is an error.
    let (_, err, code) = run_with_stdin(&["--values", "//book"], xml);
    assert_eq!(code, 2);
    assert!(err.contains("/@attr"));
}

#[test]
fn union_queries_merge_results() {
    let xml = b"<r><a/><b><c/></b><a/></r>";
    let (out, _, code) = run_with_stdin(&["//a | //b[c]"], xml);
    assert_eq!(out, "1\n2\n4\n");
    assert_eq!(code, 0);
    let (out, _, _) = run_with_stdin(&["-c", "//a | //a"], xml);
    assert_eq!(out, "2\n", "overlapping branches deduplicate");
    let (_, err, code) = run_with_stdin(&["--fragments", "//a | //b"], xml);
    assert_eq!(code, 2);
    assert!(err.contains("union"));
}

#[test]
fn entity_declarations_flow_through() {
    let xml = br#"<!DOCTYPE r [<!ENTITY who "world">]><r><p>hello &who;</p></r>"#;
    let (out, _, _) = run_with_stdin(&["-c", "//p[contains(text(), 'world')]"], xml);
    assert_eq!(out, "1\n");
}

#[test]
fn filter_mode_reports_matching_queries_once() {
    let xml = b"<r><a/><a/><b><c/></b></r>";
    let (out, _, code) = run_with_stdin(
        &["--filter", "-q", "//a", "-q", "//b[c]", "-q", "//zzz"],
        xml,
    );
    assert_eq!(code, 0);
    let mut lines: Vec<&str> = out.lines().collect();
    lines.sort_unstable();
    assert_eq!(lines, vec!["Q0", "Q1"]);
}

/// A Figure-2-style query (descendant axes + predicate over recursive
/// data) driven end-to-end with every observability flag at once.
#[test]
fn observability_flags_on_a_figure_2_query() {
    let dir = std::env::temp_dir().join(format!("twigm-obs-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let xml = b"<r><a><a><b/><c/></a><c/></a><a/></r>";
    let (out, err, code) = run_with_stdin(
        &[
            "--stats=json",
            "--progress",
            "--trace",
            trace_path.to_str().unwrap(),
            "-c",
            "//a[b]//c",
        ],
        xml,
    );
    assert_eq!(code, 0);
    assert_eq!(out, "1\n", "only the inner <a> has a <b> child");
    // One twigm-stats-v1 object on stderr with the telemetry fields.
    let json_line = err
        .lines()
        .find(|l| l.contains("twigm-stats-v1"))
        .unwrap_or_else(|| panic!("no stats json on stderr: {err}"));
    for needle in [
        r#""engine":"twig""#,
        r#""bytes":37"#,
        r#""max_depth":4"#,
        r#""qr_bound""#,
        r#""first_result_event""#,
        r#""results":1"#,
    ] {
        assert!(
            json_line.contains(needle),
            "missing {needle} in {json_line}"
        );
    }
    // The Chrome trace landed on disk with balanced spans.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.starts_with(r#"{"traceEvents":["#));
    assert_eq!(
        trace.matches(r#""ph":"B""#).count(),
        trace.matches(r#""ph":"E""#).count()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_pretty_reports_the_memory_bound() {
    let (out, err, code) = run_with_stdin(
        &["--stats=pretty", "-c", "//a[b]//c"],
        b"<r><a><b/><c/></a></r>",
    );
    assert_eq!(code, 0);
    assert_eq!(out, "1\n");
    assert!(err.contains("peak entries"), "{err}");
    assert!(err.contains("|Q|"), "{err}");
    assert!(err.contains("events/s"), "{err}");
}

#[test]
fn progress_heartbeats_appear_for_large_inputs() {
    // ~30k events: enough to cross several 4096-event heartbeats.
    let mut xml = String::from("<r>");
    for _ in 0..5000 {
        xml.push_str("<a><b/></a>");
    }
    xml.push_str("</r>");
    let (out, err, code) = run_with_stdin(&["--progress", "-c", "//a[b]"], xml.as_bytes());
    assert_eq!(code, 0);
    assert_eq!(out, "5000\n");
    let heartbeats = err
        .lines()
        .filter(|l| l.starts_with("twigm: progress:"))
        .count();
    assert!(heartbeats >= 2, "expected several heartbeats: {err}");
    assert!(err.contains("events/s"), "{err}");
}

/// Satellite check: union queries report stats instead of silently
/// dropping them (they used to bypass the streaming stats path).
#[test]
fn union_queries_report_stats() {
    let xml = b"<r><a/><b><c/></b></r>";
    let (out, err, code) = run_with_stdin(&["--stats", "-c", "//a | //b[c]"], xml);
    assert_eq!(code, 0);
    assert_eq!(out, "2\n");
    assert!(err.contains("events"), "union --stats was dropped: {err}");
    assert!(err.contains("result(s)"), "{err}");
    let (_, err, _) = run_with_stdin(&["--stats=json", "//a | //b[c]"], xml);
    assert!(err.contains(r#""engine":"multi""#), "{err}");
}

#[test]
fn trace_jsonl_from_stdin() {
    let dir = std::env::temp_dir().join(format!("twigm-jsonl-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let (out, _, code) = run_with_stdin(
        &["--trace", path.to_str().unwrap(), "//a/b"],
        b"<r><a><b/></a></r>",
    );
    assert_eq!(code, 0);
    assert_eq!(out, "2\n");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(text.contains(r#""kind":"push""#), "{text}");
    assert!(text.contains(r#""tag":"a""#), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn filter_mode_applies_to_a_single_query_too() {
    let xml = b"<r><a/><a/><a/></r>";
    let (out, _, code) = run_with_stdin(&["--filter", "-q", "//a"], xml);
    assert_eq!(out, "Q0\n", "one line despite three matches");
    assert_eq!(code, 0);
}

/// Unions run TwigM's transition core, so `--stats=json` reports the
/// candidates they buffer: two `b`s wait for the later `d`, while with
/// `d` first each `b` is decided at its start tag.
#[test]
fn union_stats_report_buffered_candidates() {
    let query = "//a[d]/b | //zzz";
    let (out, err, code) = run_with_stdin(&["--stats=json", query], b"<a><b/><b/><d/></a>");
    assert_eq!(code, 0);
    assert_eq!(out, "1\n2\n");
    assert!(err.contains(r#""peak_candidates":2"#), "{err}");
    let (out, err, _) = run_with_stdin(&["--stats=json", query], b"<a><d/><b/><b/></a>");
    assert_eq!(out, "2\n3\n");
    assert!(err.contains(r#""peak_candidates":0"#), "{err}");
}

/// Standing-query mode runs the telemetry driver observer too: progress
/// heartbeats on a large input, and a `--stats=json` report that passes
/// the schema validator with the whole input accounted for.
#[test]
fn multi_query_mode_reports_progress_and_telemetry() {
    // ~30k events: more than one 4096-event heartbeat.
    let mut xml = String::from("<r>");
    for _ in 0..5000 {
        xml.push_str("<a><b/></a>");
    }
    xml.push_str("</r>\n");
    let (out, err, code) = run_with_stdin(
        &["-q", "//a", "-q", "//b", "--progress", "--stats=json"],
        xml.as_bytes(),
    );
    assert_eq!(code, 0, "{err}");
    assert_eq!(out.lines().count(), 10_000);
    assert!(
        err.lines().any(|l| l.starts_with("twigm: progress:")),
        "no heartbeat: {err}"
    );
    let json_line = err
        .lines()
        .find(|l| l.contains("twigm-stats-v1"))
        .unwrap_or_else(|| panic!("no stats json on stderr: {err}"));
    twigm_testkit::obsjson::validate_stats(json_line).expect("valid twigm-stats-v1");
    let report = twigm_testkit::obsjson::parse(json_line).unwrap();
    let bytes = report.get("bytes").and_then(|b| b.as_u64());
    assert_eq!(bytes, Some(xml.len() as u64), "{json_line}");
}

/// An unknown entity in an attribute value the query never reads is
/// still a malformed document: every engine, the threaded driver and a
/// union fail with the same error at the start tag's offset.
#[test]
fn bad_attribute_entity_fails_on_every_engine() {
    let xml = br#"<r><x a="&bogus;"/></r>"#;
    let expected = "twigm: unknown entity `&bogus;` at byte 3\n";
    let runs: [&[&str]; 9] = [
        &["//r"],
        &["--engine", "auto", "//r"],
        &["--engine", "twig", "//r"],
        &["--engine", "path", "//r"],
        &["--engine", "branch", "/r"],
        &["--engine", "naive", "//r"],
        &["--engine", "dfa", "//r"],
        &["--engine", "dom", "//r"],
        &["--threads", "2", "//r"],
    ];
    for args in runs.iter().copied().chain([&["//r | //y"][..]]) {
        let (out, err, code) = run_with_stdin(args, xml);
        assert_eq!(
            (out.as_str(), err.as_str(), code),
            ("", expected, 2),
            "{args:?}"
        );
    }
}

/// Processing-instruction data is checked as UTF-8 like every other
/// range: bad bytes there are a typed error on every engine, not a
/// panic.
#[test]
fn invalid_utf8_in_pi_data_fails_on_every_engine() {
    let xml = b"<r><?pi \xff\xfe?></r>";
    let expected = "twigm: invalid UTF-8 at byte 8\n";
    let runs: [&[&str]; 9] = [
        &["//r"],
        &["--engine", "auto", "//r"],
        &["--engine", "twig", "//r"],
        &["--engine", "path", "//r"],
        &["--engine", "branch", "/r"],
        &["--engine", "naive", "//r"],
        &["--engine", "dfa", "//r"],
        &["--engine", "dom", "//r"],
        &["--threads", "2", "//r"],
    ];
    for args in runs.iter().copied().chain([&["//r | //y"][..]]) {
        let (out, err, code) = run_with_stdin(args, xml);
        assert_eq!(
            (out.as_str(), err.as_str(), code),
            ("", expected, 2),
            "{args:?}"
        );
    }
}

/// The named count check of the reader's projection, on the seed-1
/// 256 KiB Protein document under Q1: the events the reader delivers
/// plus the events it skims are exactly a full parse's, and the results,
/// ids, bytes and recursion depth do not move — `--engine dom` parses
/// the whole document and agrees.
#[test]
fn protein_projection_skims_exactly_the_unreachable_events() {
    let mut xml = Vec::new();
    twigm_datagen::protein::generate(1, 256 << 10, &mut xml).unwrap();
    let q1 = "/ProteinDatabase/ProteinEntry/protein/name";
    let field = |json: &str, key: &str| {
        let report = twigm_testkit::obsjson::parse(json).unwrap();
        report.get(key).and_then(|v| v.as_u64()).unwrap()
    };
    let (ids, err, code) = run_with_stdin(&["--stats=json", q1], &xml);
    assert_eq!(code, 0, "{err}");
    let json = err.lines().find(|l| l.contains("twigm-stats-v1")).unwrap();
    twigm_testkit::obsjson::validate_stats(json).expect("valid twigm-stats-v1");
    let (dom_ids, _, _) = run_with_stdin(&["--engine", "dom", q1], &xml);
    assert_eq!(ids, dom_ids);
    assert_eq!(field(json, "results"), 97);
    assert_eq!(field(json, "max_depth"), 6);
    assert_eq!(field(json, "bytes"), xml.len() as u64);
    // The full parse, counted by the bare reader: an event lies outside
    // skimmed content when every element around it is on Q1's path
    // above `name` (`name` itself has nothing below it to match).
    let spine = ["ProteinDatabase", "ProteinEntry", "protein"];
    let mut reader = twigm_sax::SaxReader::from_bytes(&xml);
    let mut around: Vec<bool> = Vec::new();
    let (mut full, mut outside) = (0u64, 0u64);
    while let Some(event) = reader.next_event().unwrap() {
        full += 1;
        if let twigm_sax::Event::End(_) = event {
            around.pop();
        }
        outside += u64::from(around.iter().all(|&live| live));
        if let twigm_sax::Event::Start(tag) = event {
            around.push(spine.get(around.len()) == Some(&tag.name()));
        }
    }
    assert_eq!(full, 21_501);
    let (events, skipped) = (field(json, "events"), field(json, "skipped_events"));
    assert_eq!(events, outside, "{json}");
    assert_eq!(events + skipped, full, "{json}");
    // A `//` root compiles to no projection: nothing is skimmed.
    let (_, err, _) = run_with_stdin(&["--stats=json", "//ProteinEntry/protein/name"], &xml);
    let json = err.lines().find(|l| l.contains("twigm-stats-v1")).unwrap();
    assert_eq!(field(json, "skipped_events"), 0);
    assert_eq!(field(json, "events"), 21_501);
}

/// `--threads` must not show in the output: every machine engine and
/// both output modes it serves print exactly what the serial run
/// prints, with 2 and 4 threads, single queries and unions alike.
#[test]
fn threads_print_exactly_what_the_serial_run_prints() {
    let mut xml = String::from("<r>");
    for i in 0..40 {
        xml.push_str(&format!(
            "<a k=\"{i}\"><x><b>deep</b></x><b>t{i}</b><c/></a><junk><c/></junk>"
        ));
    }
    xml.push_str("</r>");
    let cases: [(&str, &[&str]); 6] = [
        ("//a/b", &["auto", "twig", "path"]),
        ("/r/a[c]/b", &["auto", "twig", "branch"]),
        ("//a[b = 't3']/c", &["auto", "twig"]),
        ("//a[@k >= 30]", &["auto", "twig"]),
        ("//a/b | //junk/c", &["auto", "twig"]),
        ("/r/junk/c | /r/a[x]/b", &["auto"]),
    ];
    for (query, engines) in cases {
        for engine in engines {
            for output in ["--ids", "-c"] {
                let serial = run_with_stdin(&["--engine", engine, output, query], xml.as_bytes());
                assert_eq!(serial.2, 0, "{query} on {engine}: {}", serial.1);
                for threads in ["2", "4"] {
                    let args = ["--threads", threads, "--engine", engine, output, query];
                    assert_eq!(run_with_stdin(&args, xml.as_bytes()), serial, "{args:?}");
                }
            }
        }
    }
}

/// A threaded run's report carries the stream counts of the serial run
/// on the same document, taken from the producer's reader: events,
/// bytes, the recursion depth and the `|Q|·R` bound, the skimmed
/// events, and the results. A `//`-rooted union skims nothing; a
/// child-rooted one skims the `<z>` subtree.
#[test]
fn threaded_stats_report_the_serial_stream_counts() {
    let xml = b"<r><a>x<b/><c/></a><a><b/>y</a><z><q/></z></r>";
    let field = |json: &str, key: &str| {
        let report = twigm_testkit::obsjson::parse(json).unwrap();
        report.get(key).and_then(|v| v.as_u64())
    };
    let keys = [
        "events",
        "bytes",
        "max_depth",
        "qr_bound",
        "skipped_events",
        "results",
    ];
    for query in ["//a[b] | //c", "/r/a[b] | /r/a/c", "//a[b]", "/r/a/c"] {
        let report = |threads: &str| {
            let args = ["--threads", threads, "--stats=json", "-c", query];
            let (_, err, code) = run_with_stdin(&args, xml);
            assert_eq!(code, 0, "{args:?}: {err}");
            let json = err
                .lines()
                .find(|l| l.contains("twigm-stats-v1"))
                .unwrap_or_else(|| panic!("no stats json for {args:?}: {err}"))
                .to_string();
            twigm_testkit::obsjson::validate_stats(&json).expect("valid twigm-stats-v1");
            json
        };
        let serial = report("1");
        assert!(serial.contains(r#""pipeline":null"#), "{serial}");
        if query == "//a[b] | //c" {
            for (key, value) in [
                ("events", 18),
                ("bytes", 46),
                ("max_depth", 3),
                ("qr_bound", 9),
            ] {
                assert_eq!(field(&serial, key), Some(value), "{key} in {serial}");
            }
        }
        for threads in ["2", "3"] {
            let threaded = report(threads);
            assert!(threaded.contains(r#""pipeline":{"#), "{threaded}");
            for key in keys {
                assert_eq!(
                    field(&threaded, key),
                    field(&serial, key),
                    "`{query}` --threads {threads}: {key}\n{threaded}\n{serial}"
                );
            }
            assert!(threaded.contains(r#""time_to_first_result_secs":null"#));
        }
    }
}
