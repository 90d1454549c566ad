//! XML-fragment output (what the paper's ViteX implementation returns).
//!
//! The core machines emit node *ids* — footnote 3 of the paper: "Our
//! implementation returns XML fragments instead of node ids." This module
//! provides that mode: [`FragmentCollector`] wraps any [`StreamEngine`],
//! records the serialized subtree of every element that becomes a
//! solution *candidate*, and releases a fragment as soon as the wrapped
//! engine decides the candidate is a real solution.
//!
//! Memory note: fragments of undecided candidates are buffered until the
//! decision (or until the document ends, when unreleased buffers are
//! dropped). This is inherent to the problem — a streaming processor
//! cannot ship data it may still have to retract — and mirrors the
//! buffering all predicate-capable streaming processors perform (XSQ's
//! buffer, TurboXPath's work areas).

use twigm_sax::{escape_attr, escape_text, Attribute, NodeId, Projection, Symbol, SymbolTable};

use crate::engine::StreamEngine;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::stats::EngineStats;

/// A recording of one candidate element's subtree, in progress.
#[derive(Debug)]
struct Recording {
    id: u64,
    level: u32,
    buf: String,
}

/// Wraps a [`StreamEngine`] and captures the XML fragments of decided
/// solutions.
pub struct FragmentCollector<E> {
    inner: E,
    /// Recordings of candidate elements still open.
    open: Vec<Recording>,
    /// Fragments of closed but undecided candidates.
    pending: FxHashMap<u64, String>,
    /// Ids decided before their fragment closed (PathM decides at the
    /// start tag).
    decided_early: FxHashSet<u64>,
    /// Decided `(id, fragment)` pairs, in decision order.
    fragments: Vec<(NodeId, String)>,
    result_ids: Vec<NodeId>,
}

impl<E: StreamEngine> FragmentCollector<E> {
    /// Wraps an engine.
    pub fn new(inner: E) -> Self {
        FragmentCollector {
            inner,
            open: Vec::new(),
            pending: FxHashMap::default(),
            decided_early: FxHashSet::default(),
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

    fn drain_decisions(&mut self) {
        for id in self.inner.take_results() {
            self.result_ids.push(id);
            match self.pending.remove(&id.get()) {
                Some(fragment) => self.fragments.push((id, fragment)),
                None => {
                    // Fragment still recording (decision at start tag).
                    self.decided_early.insert(id.get());
                }
            }
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
            let mut tag_text = String::with_capacity(name.len() + 2);
            tag_text.push('<');
            tag_text.push_str(name);
            for a in attrs {
                tag_text.push(' ');
                tag_text.push_str(a.name);
                tag_text.push_str("=\"");
                tag_text.push_str(&escape_attr(&a.value));
                tag_text.push('"');
            }
            tag_text.push('>');
            for rec in &mut self.open {
                rec.buf.push_str(&tag_text);
            }
            if became_candidate {
                self.open.push(Recording {
                    id: id.get(),
                    level,
                    buf: tag_text,
                });
            }
        }
        self.drain_decisions();
        became_candidate
    }

    fn text(&mut self, text: &str, level: u32) {
        self.inner.text(text, level);
        if !self.open.is_empty() {
            let escaped = escape_text(text);
            for rec in &mut self.open {
                rec.buf.push_str(&escaped);
            }
        }
    }

    fn end_element(&mut self, sym: Symbol, name: &str, level: u32) {
        self.inner.end_element(sym, name, level);
        if !self.open.is_empty() {
            for rec in &mut self.open {
                rec.buf.push_str("</");
                rec.buf.push_str(name);
                rec.buf.push('>');
            }
            // Close recordings of elements ending at this level (at most
            // one: recordings at one level are sequential, and the
            // previous one was closed when its element ended).
            while self.open.last().is_some_and(|rec| rec.level == level) {
                let rec = self.open.pop().expect("checked non-empty");
                if self.decided_early.remove(&rec.id) {
                    self.fragments.push((NodeId::new(rec.id), rec.buf));
                } else {
                    self.pending.insert(rec.id, rec.buf);
                }
            }
        }
        self.drain_decisions();
        if level == 1 {
            // Document closed: undecided candidates are dead.
            self.pending.clear();
            self.decided_early.clear();
        }
    }

    /// The inner engine's table. Attributes stay decoded for every
    /// start tag (the default `needs_attributes`): recorded fragments
    /// serialize them.
    fn symbols(&self) -> Option<&SymbolTable> {
        self.inner.symbols()
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
    use crate::engine::run_engine;
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
    fn undecided_candidates_produce_nothing() {
        let xml = "<r><a><c/></a></r>";
        assert!(fragments("//a[b]", xml).is_empty());
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
