//! Differential checking of every engine against the DOM oracle, plus
//! Theorem 4.4 accounting assertions.

use std::fmt;

use twigm::engine::{run_engine, StreamEngine};
use twigm::{BranchM, Engine, EngineStats, MultiTwigM, PathM, TwigM};
use twigm_baselines::inmem::{Document, InMemEval};
use twigm_baselines::{LazyDfa, NaiveEnum};
use twigm_sax::NodeId;
use twigm_xpath::Path;

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
    /// Generated XML or query text failed to parse (generator or
    /// parser/printer bug).
    Parse,
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
            ViolationKind::Parse => "parse",
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
    fn oracle_matches_manual_expectation() {
        let xml = b"<r><a><b/></a><a/></r>";
        let doc = Document::parse_bytes(xml).unwrap();
        assert_eq!(oracle_ids(&doc, &parse("//a").unwrap()), vec![1, 3]);
    }

    #[test]
    fn divergence_is_detected() {
        // A deliberately broken "engine": claims everything matches.
        struct LiarStats(twigm::stats::EngineStats, Vec<NodeId>);
        impl StreamEngine for LiarStats {
            fn start_element(
                &mut self,
                _tag: &str,
                _attrs: &[twigm_sax::Attribute<'_>],
                _level: u32,
                id: NodeId,
            ) -> bool {
                self.1.push(id);
                true
            }
            fn end_element(&mut self, _tag: &str, _level: u32) {}
            fn take_results(&mut self) -> Vec<NodeId> {
                std::mem::take(&mut self.1)
            }
            fn stats(&self) -> &twigm::stats::EngineStats {
                &self.0
            }
        }
        let xml = b"<r><a/></r>";
        let query = parse("//a").unwrap();
        let mut out = Vec::new();
        check_engine(
            LiarStats(Default::default(), Vec::new()),
            "Liar",
            xml,
            &query,
            &[1],
            2,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ViolationKind::Divergence);
    }
}
