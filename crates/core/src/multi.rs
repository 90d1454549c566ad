//! Multi-query evaluation: many standing XPath queries over one stream.
//!
//! The paper's related work (§6) distinguishes *query processors* (one
//! query, return matching nodes — TwigM) from *filtering systems*
//! (YFilter, XTrie, XPush: thousands of standing queries, report which
//! match). [`MultiTwigM`] bridges the two: it runs any number of TwigM
//! machines over a single event stream with a **shared dispatch index**,
//! so an event touches only the machine nodes whose name test can match
//! it, not every machine. Each result is tagged with the query that
//! produced it.
//!
//! Per-event cost is `O(candidates(tag) + wildcard nodes)` instead of
//! `Σ|Qᵢ|`, which is what makes hundreds of standing queries practical —
//! the shape YFilter obtains by sharing automaton prefixes.
//!
//! Each registered query is one TwigM transition core, the same one
//! [`crate::TwigM`] runs, so unions and standing queries get its eager
//! delivery, sorted candidate merge and candidate accounting. This
//! module only owns the dispatch: the shared index, filter mode and the
//! result tags.

use twigm_sax::{Attribute, NodeId, Symbol, SymbolTable};
use twigm_xpath::{NameTest, Path};

use crate::engine::StreamEngine;
use crate::machine::{Machine, MachineError};
use crate::observe::{MachineObserver, NoopObserver};
use crate::relevance::Relevance;
use crate::stats::EngineStats;
use crate::twig::{Ctx, Gauges, ResultSink, TwigCore};

/// Identifies one registered query.
pub type QueryId = usize;

/// A result produced by one of the registered queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedResult {
    /// Which registered query matched.
    pub query: QueryId,
    /// The matching element.
    pub node: NodeId,
}

/// The engine's result sink, pointed at one query at a time: tags each
/// result with the query and, in filter mode, keeps only the query's
/// first match per document.
struct Tagged<'a> {
    query: QueryId,
    results: &'a mut Vec<TaggedResult>,
    filter: bool,
    matched: &'a mut [bool],
}

impl ResultSink for Tagged<'_> {
    #[inline]
    fn accept(&mut self, node: NodeId) -> bool {
        let matched = &mut self.matched[self.query];
        if self.filter && *matched {
            return false;
        }
        *matched = true;
        self.results.push(TaggedResult {
            query: self.query,
            node,
        });
        true
    }
}

/// A multi-query streaming engine.
///
/// # Example
///
/// ```
/// use twigm::multi::MultiTwigM;
///
/// let mut engine = MultiTwigM::new();
/// let alerts = engine.add_query(&twigm_xpath::parse("//order[total > 100]").unwrap()).unwrap();
/// let audits = engine.add_query(&twigm_xpath::parse("//order[@region = 'EU']").unwrap()).unwrap();
/// let xml = br#"<feed><order region="EU"><total>250</total></order></feed>"#;
/// let results = engine.run(&xml[..]).unwrap();
/// assert_eq!(results.len(), 2); // both standing queries matched
/// assert!(results.iter().any(|r| r.query == alerts));
/// assert!(results.iter().any(|r| r.query == audits));
/// ```
pub struct MultiTwigM<O: MachineObserver = NoopObserver> {
    /// One TwigM core per registered query, indexed by [`QueryId`].
    cores: Vec<TwigCore>,
    /// The symbol space shared by every registered machine.
    table: SymbolTable,
    /// Dense dispatch: symbol index → (query, machine node) pairs with
    /// that tag, across all registered queries.
    by_sym: Vec<Vec<(QueryId, usize)>>,
    /// Per symbol index: some dispatched node tests attributes.
    attr_syms: Vec<bool>,
    /// Some wildcard node tests attributes.
    attr_wild: bool,
    /// (query, machine node) pairs labelled `*`.
    wildcards: Vec<(QueryId, usize)>,
    /// Queries with nodes that accumulate text.
    text_queries: Vec<QueryId>,
    /// Queries with positional (`[n]`) nodes, whose sibling counters
    /// reset on every start tag.
    pos_queries: Vec<QueryId>,
    depth: u32,
    results: Vec<TaggedResult>,
    stats: EngineStats,
    /// Live entries and candidates summed over every core.
    live: Gauges,
    /// Filtering mode: report at most one match per query per document
    /// and stop evaluating a query once it has matched (YFilter-style
    /// boolean filtering).
    filter_mode: bool,
    /// Per query: already matched within the current document.
    matched: Vec<bool>,
    observer: O,
}

impl MultiTwigM {
    /// Creates an engine with no queries.
    pub fn new() -> Self {
        Self::with_observer(NoopObserver)
    }
}

impl<O: MachineObserver> MultiTwigM<O> {
    /// Creates an engine with no queries and an attached observer. Hook
    /// node ids are flat over all registered queries; see
    /// [`MultiTwigM::query_node`].
    pub fn with_observer(observer: O) -> Self {
        MultiTwigM {
            cores: Vec::new(),
            table: SymbolTable::new(),
            by_sym: Vec::new(),
            attr_syms: Vec::new(),
            attr_wild: false,
            wildcards: Vec::new(),
            text_queries: Vec::new(),
            pos_queries: Vec::new(),
            depth: 0,
            results: Vec::new(),
            stats: EngineStats::default(),
            live: Gauges::default(),
            filter_mode: false,
            matched: Vec::new(),
            observer,
        }
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Consumes the engine, returning the observer.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Switches the engine into *filtering* mode: each query reports at
    /// most one (tagged) match per document, and a query that has matched
    /// stops consuming events until the next document — the boolean
    /// matching problem of the filtering systems in the paper's related
    /// work (§6), with early termination as the payoff.
    pub fn filter_mode(mut self) -> Self {
        self.filter_mode = true;
        self
    }

    /// Registers a query; returns its id (used to tag results).
    ///
    /// Queries can be added between documents, but not in the middle of
    /// one (entries for already-open elements would be missing): that
    /// returns [`MachineError::QueryAddedMidDocument`] and leaves the
    /// engine unchanged.
    pub fn add_query(&mut self, query: &Path) -> Result<QueryId, MachineError> {
        if self.depth != 0 {
            return Err(MachineError::QueryAddedMidDocument { depth: self.depth });
        }
        let machine = Machine::from_path(query)?;
        let qid = self.cores.len();
        for (v, node) in machine.nodes.iter().enumerate() {
            let tests_attrs = !node.start_conds.is_empty();
            match &node.name {
                NameTest::Tag(tag) => {
                    let i = self.table.intern(tag).index().expect("interned");
                    // The dense tables track the append-only symbol space.
                    self.by_sym.resize(self.table.len(), Vec::new());
                    self.attr_syms.resize(self.table.len(), false);
                    self.by_sym[i].push((qid, v));
                    self.attr_syms[i] |= tests_attrs;
                }
                NameTest::Wildcard => {
                    self.wildcards.push((qid, v));
                    self.attr_wild |= tests_attrs;
                }
            }
        }
        if !machine.text_nodes().is_empty() {
            self.text_queries.push(qid);
        }
        if !machine.pos_nodes().is_empty() {
            self.pos_queries.push(qid);
        }
        let obs_base = self.cores.last().map_or(0, |c| {
            u32::try_from(c.obs_base() as usize + c.machine().len())
                .expect("fewer than 2^32 machine nodes")
        });
        self.cores.push(TwigCore::new(machine, obs_base));
        self.matched.push(false);
        Ok(qid)
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.cores.len()
    }

    /// Total machine-node count summed over every registered query — the
    /// |Q| of Theorem 4.4 for the multi-query machine: its aggregated
    /// `peak_entries` is bounded by this total times the recursion depth.
    pub fn machine_size(&self) -> usize {
        self.cores.iter().map(|c| c.machine().len()).sum()
    }

    /// Maps an observer node id back to its `(query, machine node)` pair.
    /// Ids are flat: a query's nodes follow those of every query
    /// registered before it. `None` for ids past the last node.
    pub fn query_node(&self, node: u32) -> Option<(QueryId, usize)> {
        let qid = self
            .cores
            .partition_point(|c| c.obs_base() <= node)
            .checked_sub(1)?;
        let v = (node - self.cores[qid].obs_base()) as usize;
        (v < self.cores[qid].machine().len()).then_some((qid, v))
    }

    /// The symbol space shared by every registered machine. Callers
    /// driving the engine event by event can look a tag up once and use
    /// the `_sym` entry points.
    pub fn symbols(&self) -> &SymbolTable {
        &self.table
    }

    /// Work counters (aggregated over all queries).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Drains the tagged results decided so far.
    pub fn take_tagged_results(&mut self) -> Vec<TaggedResult> {
        std::mem::take(&mut self.results)
    }

    /// Runs a complete document and returns its tagged results.
    pub fn run<R: std::io::Read>(
        &mut self,
        src: R,
    ) -> Result<Vec<TaggedResult>, twigm_sax::SaxError> {
        let mut reader = twigm_sax::SaxReader::new(src);
        while let Some(event) = reader.next_event()? {
            match event {
                twigm_sax::Event::Start(tag) => {
                    // One interner lookup per event; attribute decoding
                    // is skipped when no dispatched node tests them.
                    let sym = self.table.lookup(tag.name());
                    let mut attrs: Vec<Attribute<'_>> = Vec::new();
                    if self.needs_attributes(sym) {
                        for a in tag.attributes() {
                            attrs.push(a?);
                        }
                    }
                    self.start_element_sym(sym, tag.name(), &attrs, tag.level(), tag.id());
                }
                twigm_sax::Event::End(tag) => {
                    let sym = self.table.lookup(tag.name());
                    self.end_element_sym(sym, tag.name(), tag.level())
                }
                twigm_sax::Event::Text(t) => self.text(&t),
                _ => {}
            }
        }
        Ok(self.take_tagged_results())
    }

    /// Runs `transition` on every `(query, node)` pair dispatched for
    /// `sym` — the nodes tagged `sym`, then the wildcard nodes — lending
    /// each core the engine's counters and the result sink pointed at
    /// its query. In filter mode a query that has matched this document
    /// is skipped, and one that matches now has its entries discarded.
    #[inline]
    fn each_dispatched(
        &mut self,
        sym: Symbol,
        mut transition: impl FnMut(&mut TwigCore, usize, &mut Ctx<'_, O, Tagged<'_>>),
    ) {
        let tagged: &[(QueryId, usize)] = match sym.index() {
            Some(i) if i < self.by_sym.len() => &self.by_sym[i],
            _ => &[],
        };
        let mut sink = Tagged {
            query: 0,
            results: &mut self.results,
            filter: self.filter_mode,
            matched: &mut self.matched,
        };
        let mut cx = Ctx {
            stats: &mut self.stats,
            live: &mut self.live,
            observer: &mut self.observer,
            sink: &mut sink,
        };
        for &(qid, v) in tagged.iter().chain(&self.wildcards) {
            if cx.sink.filter && cx.sink.matched[qid] {
                continue;
            }
            cx.sink.query = qid;
            let core = &mut self.cores[qid];
            transition(core, v, &mut cx);
            if cx.sink.filter && cx.sink.matched[qid] {
                core.discard(&mut cx);
            }
        }
    }
}

impl Default for MultiTwigM {
    fn default() -> Self {
        Self::new()
    }
}

/// The event interface, shared with the generic drivers
/// ([`crate::engine::run_engine`], the traced and pipelined variants),
/// e.g. for *union* queries where per-query tags are irrelevant.
///
/// [`StreamEngine::take_results`] flattens the pending
/// [`TaggedResult`]s to bare node ids in decision order — the same id
/// can appear once per matching query, so union-semantics callers
/// dedup afterwards. Use [`MultiTwigM::take_tagged_results`] directly
/// when the tags matter.
impl<O: MachineObserver> StreamEngine for MultiTwigM<O> {
    fn start_element(
        &mut self,
        tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        let sym = self.table.lookup(tag);
        self.start_element_sym(sym, tag, attrs, level, id)
    }

    /// δs, applied across all registered machines via the shared dense
    /// index.
    fn start_element_sym(
        &mut self,
        sym: Symbol,
        _tag: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        self.stats.start_events += 1;
        self.depth = level;
        if O::ENABLED {
            self.observer.on_start_element(sym, level, id);
        }
        for &qid in &self.pos_queries {
            self.cores[qid].reset_positions(level);
        }
        let mut became_candidate = false;
        self.each_dispatched(sym, |core, v, cx| {
            became_candidate |= core.start(v, attrs, level, id, cx);
        });
        self.live.record_peaks(&mut self.stats);
        if O::ENABLED {
            self.observer.on_event_end(&self.stats);
        }
        became_candidate
    }

    fn text(&mut self, text: &str) {
        self.text_at(text, self.depth)
    }

    /// Character data with an explicit containing level — the entry
    /// point for prefiltered batch streams, where the internally tracked
    /// depth can lag behind the document (skipped subtrees never update
    /// it).
    fn text_at(&mut self, text: &str, level: u32) {
        for &qid in &self.text_queries {
            self.cores[qid].text_at(text, level);
        }
    }

    /// Dispatch-relevance of the whole query set over the shared symbol
    /// table: the union of every registered machine's needs, read off
    /// the shared dispatch index so it stays exact as queries are added.
    fn relevance(&self) -> Relevance {
        let skippable = self.wildcards.is_empty() && self.pos_queries.is_empty();
        Relevance {
            symbols: skippable.then(|| self.by_sym.iter().map(|n| !n.is_empty()).collect()),
            wants_text: !self.text_queries.is_empty(),
        }
    }

    fn end_element(&mut self, tag: &str, level: u32) {
        let sym = self.table.lookup(tag);
        self.end_element_sym(sym, tag, level)
    }

    /// δe, applied across all registered machines via the shared dense
    /// index.
    fn end_element_sym(&mut self, sym: Symbol, _tag: &str, level: u32) {
        self.stats.end_events += 1;
        self.depth = level.saturating_sub(1);
        if O::ENABLED {
            self.observer.on_end_element(sym, level);
        }
        self.each_dispatched(sym, |core, v, cx| core.end(v, level, cx));
        self.live.record_peaks(&mut self.stats);
        if O::ENABLED {
            self.observer.on_event_end(&self.stats);
        }
        if level == 1 {
            self.cores.iter_mut().for_each(TwigCore::end_document);
            self.matched.iter_mut().for_each(|m| *m = false);
            if O::ENABLED {
                self.observer.on_document_end();
            }
        }
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        Some(&self.table)
    }

    fn needs_attributes(&self, sym: Symbol) -> bool {
        self.attr_wild
            || match sym.index() {
                Some(i) if i < self.attr_syms.len() => self.attr_syms[i],
                _ => false,
            }
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        self.results.drain(..).map(|r| r.node).collect()
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn machine_size(&self) -> Option<usize> {
        Some(MultiTwigM::machine_size(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_engine;
    use crate::twig::TwigM;
    use twigm_xpath::parse;

    fn tagged(engine: &mut MultiTwigM, xml: &str) -> Vec<(usize, u64)> {
        let results = engine.run(xml.as_bytes()).unwrap();
        let mut out: Vec<(usize, u64)> = results
            .into_iter()
            .map(|r| (r.query, r.node.get()))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn two_queries_one_stream() {
        let mut engine = MultiTwigM::new();
        let q0 = engine.add_query(&parse("//a/b").unwrap()).unwrap();
        let q1 = engine.add_query(&parse("//a[c]").unwrap()).unwrap();
        let results = tagged(&mut engine, "<r><a><b/></a><a><c/></a></r>");
        assert_eq!(results, vec![(q0, 2), (q1, 3)]);
    }

    #[test]
    fn agrees_with_individual_twigm_engines() {
        let queries = [
            "//a//b",
            "//a[b]//c",
            "//a[@k]/b",
            "//b[text() = '1']",
            "//*[a][b]",
            "/r/a",
        ];
        let xml = r#"<r><a k="1"><b>1</b><c/><a><b>2</b></a></a><b>1</b></r>"#;
        let mut multi = MultiTwigM::new();
        for q in queries {
            multi.add_query(&parse(q).unwrap()).unwrap();
        }
        let mut combined = tagged(&mut multi, xml);
        combined.sort_unstable();
        let mut expected = Vec::new();
        for (qid, q) in queries.iter().enumerate() {
            let (ids, _) =
                run_engine(TwigM::new(&parse(q).unwrap()).unwrap(), xml.as_bytes()).unwrap();
            for id in ids {
                expected.push((qid, id.get()));
            }
        }
        expected.sort_unstable();
        assert_eq!(combined, expected);
    }

    #[test]
    fn dispatch_skips_unrelated_machines() {
        // 100 queries on distinct tags: an event for tag t must probe
        // only t's machine nodes, so qualification probes stay tiny.
        let mut engine = MultiTwigM::new();
        for i in 0..100 {
            engine
                .add_query(&parse(&format!("//tag{i}/x")).unwrap())
                .unwrap();
        }
        let xml = "<r><tag5><x/></tag5></r>";
        let results = engine.run(xml.as_bytes()).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].query, 5);
        // 3 start events; only tag5's two nodes (+0 wildcards) probed.
        assert!(
            engine.stats().qualification_probes <= 6,
            "probes = {}",
            engine.stats().qualification_probes
        );
    }

    #[test]
    fn reusable_across_documents() {
        let mut engine = MultiTwigM::new();
        engine.add_query(&parse("//a[b]").unwrap()).unwrap();
        for _ in 0..3 {
            let results = engine.run(&b"<a><b/></a>"[..]).unwrap();
            assert_eq!(results.len(), 1);
        }
    }

    #[test]
    fn queries_addable_between_documents() {
        let mut engine = MultiTwigM::new();
        engine.add_query(&parse("//a").unwrap()).unwrap();
        assert_eq!(engine.run(&b"<a/>"[..]).unwrap().len(), 1);
        engine.add_query(&parse("//a//a").unwrap()).unwrap();
        assert_eq!(engine.run(&b"<a><a/></a>"[..]).unwrap().len(), 3);
        assert_eq!(engine.query_count(), 2);
    }

    #[test]
    fn same_query_twice_reports_twice() {
        let mut engine = MultiTwigM::new();
        let q0 = engine.add_query(&parse("//a").unwrap()).unwrap();
        let q1 = engine.add_query(&parse("//a").unwrap()).unwrap();
        let results = tagged(&mut engine, "<a/>");
        assert_eq!(results, vec![(q0, 0), (q1, 0)]);
    }

    #[test]
    fn empty_engine_consumes_streams() {
        let mut engine = MultiTwigM::new();
        assert!(engine.run(&b"<a><b/></a>"[..]).unwrap().is_empty());
    }
}

#[cfg(test)]
mod filter_tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    fn filter_mode_reports_one_match_per_query() {
        let mut engine = MultiTwigM::new().filter_mode();
        let q0 = engine.add_query(&parse("//a").unwrap()).unwrap();
        let q1 = engine.add_query(&parse("//b[c]").unwrap()).unwrap();
        let q2 = engine.add_query(&parse("//zzz").unwrap()).unwrap();
        let results = engine
            .run(&b"<r><a/><a/><b><c/></b><a/><b><c/></b></r>"[..])
            .unwrap();
        let mut queries: Vec<usize> = results.iter().map(|r| r.query).collect();
        queries.sort_unstable();
        assert_eq!(queries, vec![q0, q1]);
        assert!(!results.iter().any(|r| r.query == q2));
    }

    #[test]
    fn filter_mode_resets_per_document() {
        let mut engine = MultiTwigM::new().filter_mode();
        engine.add_query(&parse("//a").unwrap()).unwrap();
        for _ in 0..3 {
            let results = engine.run(&b"<r><a/><a/></r>"[..]).unwrap();
            assert_eq!(results.len(), 1, "one match per document");
        }
    }

    #[test]
    fn filter_mode_does_less_work_after_matching() {
        let mut xml = String::from("<r><a/>");
        for _ in 0..1000 {
            xml.push_str("<a><b/></a>");
        }
        xml.push_str("</r>");
        let run_with = |filter: bool| {
            let mut engine = MultiTwigM::new();
            if filter {
                engine = engine.filter_mode();
            }
            engine.add_query(&parse("//a").unwrap()).unwrap();
            engine.run(xml.as_bytes()).unwrap();
            engine.stats().pushes
        };
        let filtered = run_with(true);
        let full = run_with(false);
        assert!(
            filtered * 10 < full,
            "filtering should skip pushes after the match: {filtered} vs {full}"
        );
    }

    #[test]
    fn filter_mode_matches_agree_with_full_evaluation() {
        let xml = "<r><a><b/></a><x><b><c/></b></x></r>";
        let queries = ["//a/b", "//b[c]", "//x//c", "//a[c]"];
        let mut filter = MultiTwigM::new().filter_mode();
        let mut full = MultiTwigM::new();
        for q in queries {
            filter.add_query(&parse(q).unwrap()).unwrap();
            full.add_query(&parse(q).unwrap()).unwrap();
        }
        let filtered: Vec<usize> = {
            let mut v: Vec<usize> = filter
                .run(xml.as_bytes())
                .unwrap()
                .iter()
                .map(|r| r.query)
                .collect();
            v.sort_unstable();
            v
        };
        let mut matched_full: Vec<usize> = full
            .run(xml.as_bytes())
            .unwrap()
            .iter()
            .map(|r| r.query)
            .collect();
        matched_full.sort_unstable();
        matched_full.dedup();
        assert_eq!(filtered, matched_full);
    }
}

#[cfg(test)]
mod core_tests {
    use super::*;
    use crate::engine::run_engine;
    use crate::twig::TwigM;
    use twigm_xpath::{parse, parse_union};

    fn union(query: &str) -> MultiTwigM {
        let mut engine = MultiTwigM::new();
        for branch in parse_union(query).unwrap() {
            engine.add_query(&branch).unwrap();
        }
        engine
    }

    /// E11 through a union: once `d` has closed, the `b` is decided at
    /// its own start tag and no candidate is ever buffered.
    #[test]
    fn union_delivers_eagerly_when_the_predicate_comes_first() {
        let mut engine = union("//a[d]/b | //zzz");
        engine.start_element("a", &[], 1, NodeId::new(0));
        engine.start_element("d", &[], 2, NodeId::new(1));
        engine.end_element("d", 2);
        assert!(engine.start_element("b", &[], 2, NodeId::new(2)));
        assert_eq!(
            engine.take_tagged_results(),
            vec![TaggedResult {
                query: 0,
                node: NodeId::new(2)
            }]
        );
        engine.end_element("b", 2);
        engine.end_element("a", 1);
        assert!(engine.take_tagged_results().is_empty(), "no re-emission");
        assert_eq!(engine.stats().peak_candidates, 0);
    }

    #[test]
    fn union_buffers_candidates_until_the_predicate_holds() {
        let mut engine = union("//a[d]/b | //zzz");
        let results = engine.run(&b"<a><b/><b/><d/></a>"[..]).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(engine.stats().peak_candidates, 2);
    }

    /// A B7-shaped union over nested `listitem`s: predicate-free, so
    /// every `text` is decided at its start tag. Nothing is buffered, so
    /// no candidate merge runs (it used to be a quadratic
    /// `Vec::contains` scan per upload).
    #[test]
    fn recursive_union_buffers_no_candidates() {
        let depth = 40;
        let mut xml = String::from("<site><description>");
        for _ in 0..depth {
            xml.push_str("<parlist><listitem><text/><text/>");
        }
        for _ in 0..depth {
            xml.push_str("</listitem></parlist>");
        }
        xml.push_str("</description></site>");
        let mut engine = union("//description//listitem//text | //zzz");
        let results = engine.run(xml.as_bytes()).unwrap();
        assert_eq!(results.len(), 2 * depth);
        let (ids, _) = run_engine(
            TwigM::new(&parse("//description//listitem//text").unwrap()).unwrap(),
            xml.as_bytes(),
        )
        .unwrap();
        assert_eq!(
            results.iter().map(|r| r.node).collect::<Vec<_>>(),
            ids,
            "same results, same decision order as TwigM"
        );
        assert_eq!(engine.stats().peak_candidates, 0);
        assert_eq!(engine.stats().candidates_merged, 0);
    }

    #[test]
    fn adding_a_query_mid_document_is_an_error() {
        let mut engine = MultiTwigM::new();
        engine.add_query(&parse("//a").unwrap()).unwrap();
        engine.start_element("r", &[], 1, NodeId::new(0));
        assert_eq!(
            engine.add_query(&parse("//b").unwrap()),
            Err(MachineError::QueryAddedMidDocument { depth: 1 })
        );
        assert_eq!(engine.query_count(), 1);
        // The engine is unchanged and still usable.
        engine.start_element("a", &[], 2, NodeId::new(1));
        engine.end_element("a", 2);
        engine.end_element("r", 1);
        assert_eq!(
            engine.take_tagged_results(),
            vec![TaggedResult {
                query: 0,
                node: NodeId::new(1)
            }]
        );
        let q1 = engine.add_query(&parse("//b").unwrap()).unwrap();
        let results = engine.run(&b"<b/>"[..]).unwrap();
        assert_eq!(
            results,
            vec![TaggedResult {
                query: q1,
                node: NodeId::new(0)
            }]
        );
    }

    /// Records the node id of every push.
    #[derive(Default)]
    struct Pushes(Vec<u32>);

    impl MachineObserver for Pushes {
        fn on_push(&mut self, node: u32, _level: u32, _is_candidate: bool) {
            self.0.push(node);
        }
    }

    #[test]
    fn observer_node_ids_stay_distinct_across_many_queries() {
        let n = 5000;
        let mut engine = MultiTwigM::with_observer(Pushes::default());
        for i in 0..n {
            engine
                .add_query(&parse(&format!("//tag{i}")).unwrap())
                .unwrap();
        }
        let mut xml = String::from("<r>");
        for i in 0..n {
            xml.push_str(&format!("<tag{i}/>"));
        }
        xml.push_str("</r>");
        assert_eq!(engine.run(xml.as_bytes()).unwrap().len(), n);
        let pushes = &engine.observer().0;
        assert_eq!(pushes.len(), n);
        let mut distinct = pushes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), n, "push ids alias");
        for (i, &node) in pushes.iter().enumerate() {
            assert_eq!(engine.query_node(node), Some((i, 0)));
        }
        assert_eq!(engine.query_node(n as u32), None);
    }

    #[test]
    fn query_node_maps_flat_ids_back_across_machine_sizes() {
        let mut engine = MultiTwigM::new();
        engine.add_query(&parse("//a[b]/c").unwrap()).unwrap(); // 3 nodes
        engine.add_query(&parse("//d").unwrap()).unwrap(); // 1 node
        engine.add_query(&parse("//e/f").unwrap()).unwrap(); // 2 nodes
        let mapped: Vec<_> = (0..7).map(|id| engine.query_node(id)).collect();
        assert_eq!(
            mapped,
            vec![
                Some((0, 0)),
                Some((0, 1)),
                Some((0, 2)),
                Some((1, 0)),
                Some((2, 0)),
                Some((2, 1)),
                None
            ]
        );
    }
}
