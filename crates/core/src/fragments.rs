//! XML-fragment output (what the paper's ViteX implementation returns).
//!
//! The core machines emit node *ids* — footnote 3 of the paper: "Our
//! implementation returns XML fragments instead of node ids." This module
//! provides that mode: [`FragmentCollector`] wraps any [`StreamEngine`],
//! records the serialized subtree of every element that becomes a
//! solution *candidate*, and releases a fragment as soon as the wrapped
//! engine decides the candidate is a real solution.
//!
//! Each event is serialized once, into one buffer shared by every
//! recording: an open or closed-but-undecided candidate is a `(start,
//! end)` range of it, so nested candidates share their bytes instead of
//! copying them once per nesting level (the output-side twin of TwigM's
//! compact stacks, paper §3–4). A decided fragment is copied out once.
//!
//! Memory note: fragments of undecided candidates are buffered until the
//! decision. This is inherent to the problem — a streaming processor
//! cannot ship data it may still have to retract — and mirrors the
//! buffering all predicate-capable streaming processors perform (XSQ's
//! buffer, TurboXPath's work areas). The buffer is emptied as soon as
//! nothing in it can still ship: when no recording is open and either
//! every closed candidate was decided or the engine reports
//! ([`StreamEngine::live_candidates`]) that it holds none; an engine
//! that cannot tell keeps the bytes until the document ends.

use twigm_sax::{
    escape_attr_into, escape_text_into, Attribute, NodeId, Projection, Symbol, SymbolTable,
};

use crate::engine::StreamEngine;
use crate::fxhash::FxHashMap;
use crate::stats::EngineStats;

/// A candidate element whose subtree is being serialized.
#[derive(Debug)]
struct Recording {
    id: u64,
    level: u32,
    /// Where the element's start tag begins in the shared buffer.
    start: usize,
    /// The engine decided the element before its end tag (PathM decides
    /// at the start tag).
    decided: bool,
}

/// Wraps a [`StreamEngine`] and captures the XML fragments of decided
/// solutions.
///
/// Attributes are decoded only while a recording is open, for tags the
/// wrapped engine can make a candidate, and where it tests them, so
/// [`StreamEngine::needs_attributes`] depends on the collector's state:
/// drive it with [`crate::engine::drive`] (or `run_engine`), or replay
/// batches built under a deliver-all plan, never under a plan built from
/// the collector.
pub struct FragmentCollector<E> {
    inner: E,
    /// Every event since the first open or pending recording began,
    /// serialized once.
    buf: String,
    /// Recordings of candidate elements still open, outermost first.
    open: Vec<Recording>,
    /// Closed but undecided candidates: id → their range in `buf`.
    pending: FxHashMap<u64, (usize, usize)>,
    /// Decided `(id, fragment)` pairs, in decision order.
    fragments: Vec<(NodeId, String)>,
    result_ids: Vec<NodeId>,
}

impl<E: StreamEngine> FragmentCollector<E> {
    /// Wraps an engine.
    pub fn new(inner: E) -> Self {
        FragmentCollector {
            inner,
            buf: String::new(),
            open: Vec::new(),
            pending: FxHashMap::default(),
            fragments: Vec::new(),
            result_ids: Vec::new(),
        }
    }

    /// Drains the decided fragments.
    pub fn take_fragments(&mut self) -> Vec<(NodeId, String)> {
        std::mem::take(&mut self.fragments)
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Bytes of serialized output held for open and undecided
    /// candidates.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    fn drain_decisions(&mut self) {
        let from = self.result_ids.len();
        self.inner.drain_results(&mut self.result_ids);
        for i in from..self.result_ids.len() {
            let id = self.result_ids[i];
            if let Some((start, end)) = self.pending.remove(&id.get()) {
                self.fragments.push((id, self.buf[start..end].to_owned()));
            } else if let Some(rec) = self.open.iter_mut().rev().find(|r| r.id == id.get()) {
                // Still recording: ships when its end tag closes it.
                rec.decided = true;
            }
        }
    }

    /// Empties the buffer once nothing in it can still ship.
    fn release_dead(&mut self) {
        if self.pending.is_empty() || self.inner.live_candidates() == Some(0) {
            self.pending.clear();
            self.buf.clear();
        }
    }
}

impl<E: StreamEngine> StreamEngine for FragmentCollector<E> {
    fn start_element(
        &mut self,
        sym: Symbol,
        name: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        let became_candidate = self.inner.start_element(sym, name, attrs, level, id);
        if !self.open.is_empty() || became_candidate {
            let start = self.buf.len();
            let buf = &mut self.buf;
            buf.push('<');
            buf.push_str(name);
            for a in attrs {
                buf.push(' ');
                buf.push_str(a.name);
                buf.push_str("=\"");
                escape_attr_into(&a.value, buf);
                buf.push('"');
            }
            buf.push('>');
            if became_candidate {
                self.open.push(Recording {
                    id: id.get(),
                    level,
                    start,
                    decided: false,
                });
            }
        }
        self.drain_decisions();
        became_candidate
    }

    fn text(&mut self, text: &str, level: u32) {
        self.inner.text(text, level);
        if !self.open.is_empty() {
            escape_text_into(text, &mut self.buf);
        }
    }

    fn end_element(&mut self, sym: Symbol, name: &str, level: u32) {
        self.inner.end_element(sym, name, level);
        if !self.open.is_empty() {
            self.buf.push_str("</");
            self.buf.push_str(name);
            self.buf.push('>');
            // Close recordings of elements ending at this level (at most
            // one: recordings at one level are sequential, and the
            // previous one was closed when its element ended).
            let end = self.buf.len();
            while self.open.last().is_some_and(|rec| rec.level == level) {
                let rec = self.open.pop().expect("checked non-empty");
                if rec.decided {
                    let fragment = self.buf[rec.start..end].to_owned();
                    self.fragments.push((NodeId::new(rec.id), fragment));
                } else {
                    self.pending.insert(rec.id, (rec.start, end));
                }
            }
        }
        self.drain_decisions();
        if level == 1 {
            // Document closed: undecided candidates are dead.
            self.pending.clear();
            self.buf.clear();
        } else if self.open.is_empty() && !self.buf.is_empty() {
            self.release_dead();
        }
    }

    /// The inner engine's table.
    fn symbols(&self) -> Option<&SymbolTable> {
        self.inner.symbols()
    }

    /// Attributes are serialized for every tag inside an open
    /// recording and for a tag that may open one; otherwise only the
    /// inner engine's tests need them. The answer depends on the
    /// collector's state (see the type docs).
    fn needs_attributes(&self, sym: Symbol) -> bool {
        !self.open.is_empty()
            || self.inner.can_be_candidate(sym)
            || self.inner.needs_attributes(sym)
    }

    fn can_be_candidate(&self, sym: Symbol) -> bool {
        self.inner.can_be_candidate(sym)
    }

    fn live_candidates(&self) -> Option<u64> {
        self.inner.live_candidates()
    }

    /// The inner engine's projection, with the whole subtree of every
    /// candidate kept live: its fragment serializes all of it.
    fn projection(&self) -> Option<Projection> {
        self.inner
            .projection()
            .map(Projection::keep_return_subtrees)
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.result_ids)
    }

    fn drain_results(&mut self, out: &mut Vec<NodeId>) {
        out.append(&mut self.result_ids);
    }

    fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }

    fn machine_size(&self) -> Option<usize> {
        self.inner.machine_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_engine, ByName};
    use crate::path::PathM;
    use crate::twig::TwigM;
    use twigm_xpath::parse;

    fn fragments(query: &str, xml: &str) -> Vec<String> {
        let q = parse(query).unwrap();
        let mut path;
        let mut twig;
        let engine: &mut dyn StreamEngine = if q.is_predicate_free() {
            path = PathM::new(&q).unwrap();
            &mut path
        } else {
            twig = TwigM::new(&q).unwrap();
            &mut twig
        };
        let collector = FragmentCollector::new(engine);
        let (_, mut collector) = run_engine(collector, xml.as_bytes()).unwrap();
        collector
            .take_fragments()
            .into_iter()
            .map(|(_, f)| f)
            .collect()
    }

    #[test]
    fn simple_fragments_with_twigm() {
        let xml = "<r><a><b>hi</b></a><a><c/></a></r>";
        let frags = fragments("//a[b]", xml);
        assert_eq!(frags, vec!["<a><b>hi</b></a>"]);
    }

    #[test]
    fn fragments_with_pathm_decided_at_start() {
        let xml = "<r><a><b>x</b></a></r>";
        let frags = fragments("//a", xml);
        assert_eq!(frags, vec!["<a><b>x</b></a>"]);
    }

    #[test]
    fn attributes_and_escaping_preserved() {
        let xml = r#"<r><a id="1&amp;2">x &lt; y</a></r>"#;
        let frags = fragments("//a", xml);
        assert_eq!(frags, vec![r#"<a id="1&amp;2">x &lt; y</a>"#]);
    }

    #[test]
    fn nested_candidates_each_get_fragments() {
        let xml = "<r><a><a><b/></a><b/></a></r>";
        let frags = fragments("//a[b]", xml);
        assert_eq!(frags.len(), 2);
        assert!(frags.contains(&"<a><b></b></a>".to_string()));
        assert!(frags.contains(&"<a><a><b></b></a><b></b></a>".to_string()));
    }

    #[test]
    fn rooted_fragments_keep_the_content_a_projection_would_skim() {
        // `/r/a` projects: `c` is skimmed, but each `a` candidate's
        // subtree is serialized whole.
        let xml = "<r><a><b>x</b></a><c><a/></c><a k=\"1\"><a/></a></r>";
        assert_eq!(
            fragments("/r/a", xml),
            vec!["<a><b>x</b></a>", "<a k=\"1\"><a></a></a>"]
        );
        assert_eq!(fragments("/r/a[b]", xml), vec!["<a><b>x</b></a>"]);
    }

    #[test]
    fn attributes_are_decoded_only_where_recorded() {
        let q = parse("//a[b]").unwrap();
        let mut collector = FragmentCollector::new(TwigM::new(&q).unwrap());
        let table = collector.symbols().unwrap().clone();
        let (a, b, c) = (table.lookup("a"), table.lookup("b"), table.lookup("c"));
        // Outside a recording only a possible candidate decodes them.
        assert!(collector.needs_attributes(a));
        assert!(!collector.needs_attributes(b));
        assert!(!collector.needs_attributes(c));
        collector.start_named("a", &[], 1, NodeId::new(0));
        // Inside one, every tag does.
        assert!(collector.needs_attributes(c));
        assert!(collector.needs_attributes(Symbol::UNKNOWN));

        let xml = r#"<r x="1"><c z="2"/><a k="v&amp;w"><b y="&lt;"/><d e='"'/></a></r>"#;
        assert_eq!(
            fragments("//a[b]", xml),
            vec![r#"<a k="v&amp;w"><b y="&lt;"></b><d e="&quot;"></d></a>"#]
        );
    }

    #[test]
    fn dead_candidates_free_the_buffer() {
        let q = parse("//x[b]//a").unwrap();
        let mut collector = FragmentCollector::new(TwigM::new(&q).unwrap());
        let text = |c: &mut FragmentCollector<TwigM>, t: &str, level| c.text(t, level);
        collector.start_named("r", &[], 1, NodeId::new(0));
        // `a` under an `x` without `b`: undecided, and live after it
        // closes, so its bytes stay.
        collector.start_named("x", &[], 2, NodeId::new(1));
        collector.start_named("a", &[], 3, NodeId::new(2));
        text(&mut collector, "t", 3);
        collector.end_named("a", 3);
        assert_eq!(collector.buffered_bytes(), "<a>t</a>".len());
        // `x` closes without `b`: the candidate is dead, the buffer empty.
        collector.end_named("x", 2);
        assert_eq!(collector.buffered_bytes(), 0);
        // Under an `x` that gets its `b`, the candidate ships.
        collector.start_named("x", &[], 2, NodeId::new(3));
        collector.start_named("a", &[], 3, NodeId::new(4));
        collector.end_named("a", 3);
        collector.start_named("b", &[], 3, NodeId::new(5));
        collector.end_named("b", 3);
        assert_eq!(collector.buffered_bytes(), 0);
        collector.end_named("x", 2);
        collector.end_named("r", 1);
        let ids: Vec<u64> = collector.take_results().iter().map(|id| id.get()).collect();
        assert_eq!(ids, vec![4]);
        assert_eq!(
            collector.take_fragments(),
            vec![(NodeId::new(4), "<a></a>".to_string())]
        );
    }

    #[test]
    fn undecided_candidates_produce_nothing() {
        let xml = "<r><a><c/></a></r>";
        assert!(fragments("//a[b]", xml).is_empty());
    }

    #[test]
    fn deliver_all_batches_give_the_driver_fragments() {
        use twigm_sax::batch::{BatchPlan, BatchProducer, EventBatch};
        use twigm_sax::SaxReader;
        let q = parse("//a[b]").unwrap();
        let xml = r#"<r x="1"><a k="v"><c y="2">t</c><b/></a><a><a z="&amp;"><b/></a></a></r>"#;
        let (_, mut driven) = run_engine(
            FragmentCollector::new(TwigM::new(&q).unwrap()),
            xml.as_bytes(),
        )
        .unwrap();
        let mut replayed = FragmentCollector::new(TwigM::new(&q).unwrap());
        let plan = BatchPlan::deliver_all(replayed.symbols().unwrap().clone());
        let mut producer = BatchProducer::new(SaxReader::new(xml.as_bytes()), plan);
        let mut batch = EventBatch::new();
        while producer.next_batch(&mut batch, 4).unwrap() {
            replayed.apply_batch(&batch);
        }
        let fragments = driven.take_fragments();
        assert_eq!(fragments.len(), 2);
        assert_eq!(replayed.take_fragments(), fragments);
    }

    #[test]
    fn fragment_ids_match_engine_results() {
        let q = parse("//a[b]").unwrap();
        let collector = FragmentCollector::new(TwigM::new(&q).unwrap());
        let xml = "<r><a><b/></a></r>";
        let (ids, mut collector) = run_engine(collector, xml.as_bytes()).unwrap();
        let frags = collector.take_fragments();
        assert_eq!(ids.len(), 1);
        assert_eq!(frags[0].0, ids[0]);
    }
}
