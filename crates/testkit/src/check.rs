//! Differential checking of every engine against the DOM oracle, plus
//! Theorem 4.4 accounting assertions.

use std::fmt;

use twigm::engine::{drive, run_engine, StreamEngine, Telemetry};
use twigm::fragments::FragmentCollector;
use twigm::pipeline::{run_engine_pipelined, run_multi_sharded, shard_queries, PipelineOptions};
use twigm::{BranchM, Engine, EngineStats, MultiTwigM, PathM, TwigM};
use twigm_baselines::inmem::{Document, InMemEval};
use twigm_baselines::{LazyDfa, NaiveEnum};
use twigm_sax::{NodeId, SaxError, SaxReader};
use twigm_xpath::Path;

use crate::resplit::{run_engine_chunked, split_points, SplitStrategy};

/// Coarse classification of a failure, used to decide whether a shrink
/// step preserved "the same bug".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// An engine's result set differs from the DOM oracle's.
    Divergence,
    /// An engine claiming Theorem 4.4 exceeded `|Q| * R` peak entries.
    Bound,
    /// An engine claiming the compact encoding materialized tuples.
    Tuples,
    /// Re-feeding under a chunk split changed results or peak memory.
    Resplit,
    /// A metamorphic rewrite's result-set relation does not hold.
    Metamorphic,
    /// Two engines that run the same transition core reported different
    /// work or memory counters.
    Stats,
    /// Fragment output disagrees with the wrapped engine's ids, or a
    /// fragment is not a well-formed document on its own.
    Fragment,
    /// Generated XML or query text failed to parse (generator or
    /// parser/printer bug).
    Parse,
    /// A driver ended a document with another verdict (error text or
    /// success) than an unprojected parse of it.
    Verdict,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::Divergence => "divergence",
            ViolationKind::Bound => "bound",
            ViolationKind::Tuples => "tuples",
            ViolationKind::Resplit => "resplit",
            ViolationKind::Metamorphic => "metamorphic",
            ViolationKind::Stats => "stats",
            ViolationKind::Fragment => "fragment",
            ViolationKind::Parse => "parse",
            ViolationKind::Verdict => "verdict",
        })
    }
}

/// One confirmed check failure.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What class of failure this is.
    pub kind: ViolationKind,
    /// Which engine (or harness stage) failed.
    pub engine: &'static str,
    /// The query under test, as XPath text.
    pub query: String,
    /// Human-readable specifics (expected/got sets, bound numbers, ...).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} on `{}`: {}",
            self.kind, self.engine, self.query, self.detail
        )
    }
}

/// Raw node ids, sorted, for comparison against [`oracle_ids`].
pub fn sorted(ids: Vec<NodeId>) -> Vec<u64> {
    let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
    ids.sort_unstable();
    ids
}

/// The DOM oracle's answer, or `None` when the document fails to parse
/// (reported by the caller as a [`ViolationKind::Parse`]).
pub fn oracle_ids(doc: &Document, query: &Path) -> Vec<u64> {
    sorted(InMemEval::new(doc).evaluate(query))
}

/// Runs one engine to completion and checks it against the expected set
/// and, when the engine claims one, the Theorem 4.4 bound. Returns the
/// engine's counters when it ran.
fn check_engine<E: StreamEngine>(
    engine: E,
    name: &'static str,
    xml: &[u8],
    query: &Path,
    expected: &[u64],
    depth: u64,
    out: &mut Vec<Violation>,
) -> Option<EngineStats> {
    let (ids, engine) = match run_engine(engine, xml) {
        Ok(pair) => pair,
        Err(e) => {
            out.push(Violation {
                kind: ViolationKind::Parse,
                engine: name,
                query: query.to_string(),
                detail: format!("engine run failed on oracle-parseable XML: {e}"),
            });
            return None;
        }
    };
    let ids = sorted(ids);
    if ids != expected {
        out.push(Violation {
            kind: ViolationKind::Divergence,
            engine: name,
            query: query.to_string(),
            detail: format!("expected {expected:?}, got {ids:?}"),
        });
    }
    if let Some(q) = engine.machine_size() {
        let stats = engine.stats();
        let bound = q as u64 * depth;
        if stats.peak_entries > bound {
            out.push(Violation {
                kind: ViolationKind::Bound,
                engine: name,
                query: query.to_string(),
                detail: format!("peak_entries {} > |Q|*R = {q}*{depth}", stats.peak_entries),
            });
        }
        if stats.tuples_materialized != 0 {
            out.push(Violation {
                kind: ViolationKind::Tuples,
                engine: name,
                query: query.to_string(),
                detail: format!("materialized {} tuples", stats.tuples_materialized),
            });
        }
    }
    Some(engine.stats().clone())
}

/// Checks the fragment output mode over `engine`: the ids of the
/// fragments a [`FragmentCollector`] releases must equal the ids the
/// wrapped engine decides in the same run, one fragment each, and every
/// fragment must parse as a standalone document.
fn check_fragments<E: StreamEngine>(engine: E, xml: &[u8], query: &Path, out: &mut Vec<Violation>) {
    // A failed run is the plain engine check's to report.
    if let Ok((ids, mut collector)) = run_engine(FragmentCollector::new(engine), xml) {
        check_fragment_output(&sorted(ids), &collector.take_fragments(), query, out);
    }
}

/// The [`check_fragments`] relations on one run's output: `engine_ids`
/// (sorted) are the wrapped engine's decisions, `fragments` what the
/// collector released.
fn check_fragment_output(
    engine_ids: &[u64],
    fragments: &[(NodeId, String)],
    query: &Path,
    out: &mut Vec<Violation>,
) {
    let mut violation = |detail: String| {
        out.push(Violation {
            kind: ViolationKind::Fragment,
            engine: "FragmentCollector",
            query: query.to_string(),
            detail,
        })
    };
    let fragment_ids = sorted(fragments.iter().map(|(id, _)| *id).collect());
    if fragment_ids != engine_ids {
        violation(format!(
            "engine decided {engine_ids:?}, fragments for {fragment_ids:?}"
        ));
    }
    for (id, fragment) in fragments {
        let mut reader = SaxReader::from_bytes(fragment.as_bytes());
        let parsed = loop {
            match reader.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        if let Err(e) = parsed {
            violation(format!(
                "fragment of {} does not reparse ({e}): {fragment}",
                id.get()
            ));
        }
    }
}

/// Checks that the reader's projection is invisible: with projection
/// switched off the auto-selected engine decides the same ids in the
/// same order, and the projected run's telemetry accounts for the whole
/// document — its events plus the skimmed ones are the full parse's,
/// with the same bytes and recursion depth.
fn check_projection(xml: &[u8], query: &Path, out: &mut Vec<Violation>) {
    let run = |projection: bool| {
        let mut engine = Engine::new(query).ok()?;
        let mut reader = SaxReader::new(xml);
        if !projection {
            reader = reader.with_projection(None);
        }
        let mut observer = Telemetry::new(0, |_| {});
        drive(&mut engine, &mut reader, &mut observer).ok()?;
        Some((engine.take_results(), observer.finish(&reader)))
    };
    // A failed run is the plain engine check's to report.
    let (Some((ids, on)), Some((full_ids, off))) = (run(true), run(false)) else {
        return;
    };
    let mut violation = |kind, detail| {
        out.push(Violation {
            kind,
            engine: "Engine (projected)",
            query: query.to_string(),
            detail,
        })
    };
    if ids != full_ids {
        violation(
            ViolationKind::Divergence,
            format!("projected ids {ids:?}, unprojected {full_ids:?}"),
        );
    }
    let accounted = (on.events + on.skipped_events, on.bytes, on.max_depth);
    if accounted != (off.events, off.bytes, off.max_depth) || off.skipped_events != 0 {
        violation(
            ViolationKind::Stats,
            format!("projected telemetry {on:?} does not account for {off:?}"),
        );
    }
}

/// The terminal error of an unprojected parse of `xml`, as text, or
/// `None` when `xml` is well-formed.
pub fn reader_verdict(xml: &[u8]) -> Option<String> {
    let mut reader = SaxReader::from_bytes(xml).with_projection(None);
    loop {
        match reader.next_event() {
            Ok(Some(_)) => {}
            Ok(None) => return None,
            Err(e) => return Some(e.to_string()),
        }
    }
}

/// Checks that every projected delivery of `xml`, valid or not, ends
/// with the verdict of an unprojected parse ([`reader_verdict`]): the
/// same error text, or success. The deliveries are `query` on the
/// serial driver, through a [`FragmentCollector`] and on the
/// single-query pipeline; the union of `branches` in two shards; and
/// `query` fed through `FeedReader` at each of `splits`. Returns the
/// first delivery that disagrees.
pub fn check_verdict(
    xml: &[u8],
    query: &Path,
    branches: &[Path],
    splits: &[SplitStrategy],
) -> Option<Violation> {
    // A query that does not compile is the differential battery's to
    // report.
    Engine::new(query).ok()?;
    let compile = || Engine::new(query).expect("compiled above");
    let expected = reader_verdict(xml);
    let verdict = |result: Result<(), SaxError>| result.err().map(|e| e.to_string());
    let opts = PipelineOptions::default();
    let serial = run_engine(compile(), xml).map(|_| ());
    let fragments = run_engine(FragmentCollector::new(compile()), xml).map(|_| ());
    let pipelined = run_engine_pipelined(compile(), xml, &opts).map(|_| ());
    let mut runs = vec![
        ("Engine", String::new(), verdict(serial)),
        ("FragmentCollector", String::new(), verdict(fragments)),
        ("pipeline", String::new(), verdict(pipelined)),
    ];
    if let Ok(shards) = shard_queries(branches, 2) {
        let union: Vec<String> = branches.iter().map(Path::to_string).collect();
        let result = run_multi_sharded(shards, xml, &opts).map(|_| ());
        let context = format!("`{}` in 2 shards: ", union.join(" | "));
        runs.push(("sharded union", context, verdict(result)));
    }
    for &strategy in splits {
        let cuts = split_points(xml, strategy);
        let result = run_engine_chunked(compile(), xml, &cuts).map(|_| ());
        runs.push(("FeedReader", format!("{strategy:?}: "), verdict(result)));
    }
    runs.into_iter()
        .find(|(_, _, got)| *got != expected)
        .map(|(engine, context, got)| Violation {
            kind: ViolationKind::Verdict,
            engine,
            query: query.to_string(),
            detail: format!("{context}expected {expected:?}, got {got:?}"),
        })
}

/// The counters fixed by the TwigM transitions alone, independent of
/// the owner's event dispatch.
fn core_counters(s: &EngineStats) -> [(&'static str, u64); 7] {
    [
        ("pushes", s.pushes),
        ("pops", s.pops),
        ("upload_probes", s.upload_probes),
        ("candidates_merged", s.candidates_merged),
        ("peak_entries", s.peak_entries),
        ("peak_candidates", s.peak_candidates),
        ("results", s.results),
    ]
}

/// Checks `MultiTwigM`, which runs TwigM's transition core behind a
/// shared dispatch index. With the query registered once it must match
/// TwigM counter for counter (`twig`); registered twice, so that every
/// dispatch list holds colliding machines, each copy's results must
/// still equal the oracle's. Either way the aggregated peak respects
/// the summed-|Q| bound.
fn check_multi(
    xml: &[u8],
    query: &Path,
    expected: &[u64],
    depth: u64,
    twig: Option<&EngineStats>,
    out: &mut Vec<Violation>,
) {
    for copies in [1, 2] {
        let mut multi = MultiTwigM::new();
        if (0..copies).any(|_| multi.add_query(query).is_err()) {
            return;
        }
        let results = match multi.run(xml) {
            Ok(results) => results,
            Err(e) => {
                out.push(Violation {
                    kind: ViolationKind::Parse,
                    engine: "MultiTwigM",
                    query: query.to_string(),
                    detail: format!("run failed: {e}"),
                });
                return;
            }
        };
        for copy in 0..copies {
            let ids = sorted(
                results
                    .iter()
                    .filter(|r| r.query == copy)
                    .map(|r| r.node)
                    .collect(),
            );
            if ids != expected {
                out.push(Violation {
                    kind: ViolationKind::Divergence,
                    engine: "MultiTwigM",
                    query: query.to_string(),
                    detail: format!("copy {copy} of {copies}: expected {expected:?}, got {ids:?}"),
                });
            }
        }
        let stats = multi.stats();
        let bound = multi.machine_size() as u64 * depth;
        if stats.peak_entries > bound {
            out.push(Violation {
                kind: ViolationKind::Bound,
                engine: "MultiTwigM",
                query: query.to_string(),
                detail: format!(
                    "peak_entries {} > |Q|*R = {}*{depth}",
                    stats.peak_entries,
                    multi.machine_size()
                ),
            });
        }
        match twig {
            Some(twig) if copies == 1 && core_counters(stats) != core_counters(twig) => {
                out.push(Violation {
                    kind: ViolationKind::Stats,
                    engine: "MultiTwigM",
                    query: query.to_string(),
                    detail: format!(
                        "TwigM {:?}, MultiTwigM {:?}",
                        core_counters(twig),
                        core_counters(stats)
                    ),
                });
            }
            _ => {}
        }
    }
}

/// Differentially checks every applicable engine on one (document,
/// query) pair. `doc` must be the parse of `xml`.
pub fn check_case(doc: &Document, xml: &[u8], query: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    let expected = oracle_ids(doc, query);
    let depth = doc.depth() as u64;

    let twig_stats = match TwigM::new(query) {
        Ok(e) => check_engine(e, "TwigM", xml, query, &expected, depth, &mut out),
        Err(e) => {
            out.push(Violation {
                kind: ViolationKind::Parse,
                engine: "TwigM",
                query: query.to_string(),
                detail: format!("compile failed: {e}"),
            });
            return out;
        }
    };
    if let Ok(e) = Engine::new(query) {
        check_engine(e, "Engine", xml, query, &expected, depth, &mut out);
    }
    if let Ok(e) = Engine::new(query) {
        check_fragments(e, xml, query, &mut out);
    }
    check_projection(xml, query, &mut out);
    if let Ok(e) = NaiveEnum::new(query) {
        // NaiveEnum keeps one entry per (element, parent-match) pair, so
        // it claims no bound (machine_size is None) — divergence only.
        check_engine(e, "NaiveEnum", xml, query, &expected, depth, &mut out);
    }
    if query.is_predicate_free() {
        if let Ok(e) = PathM::new(query) {
            check_engine(e, "PathM", xml, query, &expected, depth, &mut out);
        }
        if let Ok(e) = LazyDfa::new(query) {
            check_engine(e, "LazyDfa", xml, query, &expected, depth, &mut out);
        }
    }
    if query.is_branch_only() {
        if let Ok(e) = BranchM::new(query) {
            check_engine(e, "BranchM", xml, query, &expected, depth, &mut out);
        }
    }

    check_multi(xml, query, &expected, depth, twig_stats.as_ref(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    fn clean_case_has_no_violations() {
        let xml = b"<r><a><b/></a><a/></r>";
        let doc = Document::parse_bytes(xml).unwrap();
        let query = parse("//a[b]").unwrap();
        assert!(check_case(&doc, xml, &query).is_empty());
    }

    #[test]
    fn every_driver_reaches_the_reader_verdict() {
        let query = parse("/r/a[b]").unwrap();
        let branches = [query.clone(), parse("/r/c").unwrap()];
        let splits = crate::resplit::STRATEGIES;
        for xml in [
            &b"<r><a><b/></a><c/></r>"[..],
            b"<r><x>&bogus;</x><a><b/></a></r>",
            b"<r><a><b></a></r>",
            b"<r><a><b/>",
        ] {
            let verdict = check_verdict(xml, &query, &branches, &splits);
            assert!(verdict.is_none(), "{verdict:?}");
        }
        assert_eq!(reader_verdict(b"<r/>"), None);
        assert!(reader_verdict(b"<r>&bogus;</r>").is_some());
    }

    #[test]
    fn oracle_matches_manual_expectation() {
        let xml = b"<r><a><b/></a><a/></r>";
        let doc = Document::parse_bytes(xml).unwrap();
        assert_eq!(oracle_ids(&doc, &parse("//a").unwrap()), vec![1, 3]);
    }

    /// A deliberately broken "engine": decides every element it sees
    /// (claims everything matches), and reports each start tag as a
    /// candidate only when `.0` is set.
    struct Liar(bool, EngineStats, Vec<NodeId>);

    impl StreamEngine for Liar {
        fn start_element(
            &mut self,
            _sym: twigm_sax::Symbol,
            _name: &str,
            _attrs: &[twigm_sax::Attribute<'_>],
            _level: u32,
            id: NodeId,
        ) -> bool {
            self.2.push(id);
            self.0
        }
        fn end_element(&mut self, _sym: twigm_sax::Symbol, _name: &str, _level: u32) {}
        fn take_results(&mut self) -> Vec<NodeId> {
            std::mem::take(&mut self.2)
        }
        fn stats(&self) -> &EngineStats {
            &self.1
        }
    }

    #[test]
    fn divergence_is_detected() {
        let xml = b"<r><a/></r>";
        let query = parse("//a").unwrap();
        let mut out = Vec::new();
        let liar = Liar(true, EngineStats::default(), Vec::new());
        check_engine(liar, "Liar", xml, &query, &[1], 2, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ViolationKind::Divergence);
    }

    #[test]
    fn wrong_fragments_are_detected() {
        let query = parse("//a").unwrap();
        let fragment = |id, text: &str| (NodeId::new(id), text.to_string());
        let good = [fragment(1, "<a><b></b></a>"), fragment(3, "<a></a>")];
        let mut out = Vec::new();
        check_fragment_output(&[1, 3], &good, &query, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // A lost fragment, a duplicated one, and one cut short.
        let bad: [&[(NodeId, String)]; 3] = [
            &good[..1],
            &[good[0].clone(), good[0].clone(), good[1].clone()],
            &[good[0].clone(), fragment(3, "<a>")],
        ];
        for fragments in bad {
            let mut out = Vec::new();
            check_fragment_output(&[1, 3], fragments, &query, &mut out);
            assert_eq!(out.len(), 1, "{fragments:?}");
            assert_eq!(out[0].kind, ViolationKind::Fragment);
        }
    }

    #[test]
    fn a_collector_that_misses_candidates_is_detected() {
        // The collector records only flagged candidates, so it has no
        // fragment for the ids this liar decides.
        let (xml, query) = (b"<r><a/></r>", parse("//a").unwrap());
        let mut out = Vec::new();
        let liar = Liar(false, EngineStats::default(), Vec::new());
        check_fragments(liar, xml, &query, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].kind, ViolationKind::Fragment);
        let mut out = Vec::new();
        check_fragments(Engine::new(&query).unwrap(), xml, &query, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
