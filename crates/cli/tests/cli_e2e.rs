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
