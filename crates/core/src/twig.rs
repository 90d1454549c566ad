//! The TwigM machine (paper §3.3, §4): streaming evaluation of the full
//! `XP{/,//,*,[]}` language over possibly recursive XML.
//!
//! Each machine node `v` owns a stack of entries, one per *active* XML
//! element that solves the prefix subquery of `v` (Proposition 4.2). An
//! entry is the paper's triple: the element's `level`, its *branch match*
//! (here a slot bitset evaluated through the node's predicate formula),
//! and its *candidate set* (undecided solutions, as sorted node ids).
//!
//! * On `startElement(tag, level, id)` (δs, Algorithm 1): every machine
//!   node named `tag` or `*` whose parent stack holds an entry at a
//!   satisfying level distance pushes a fresh entry; the return node also
//!   seeds its entry's candidate set with `id`.
//! * On `endElement(tag, level)` (δe): a machine node whose top entry sits
//!   at `level` pops it. If the entry's formula is satisfied, the match is
//!   real: the node's β-slot is set in every parent entry at a satisfying
//!   distance and the candidates are uploaded to them — or, at the machine
//!   root, emitted as results. If the formula is not satisfied the entry
//!   is discarded, pruning every pattern match it participates in without
//!   enumerating them.
//!
//! Duplicate elimination: one solution can be decided via several root
//! entries (recursive data), so emitted ids are remembered for the
//! duration of the document and filtered from later uploads and
//! emissions.
//!
//! As an extension beyond the paper, candidates whose whole chain of
//! entries already has satisfied *monotone* formulas are delivered
//! **eagerly** — often at the match's start tag — instead of waiting for
//! the machine root to pop (see `eager_deliver`'s internal docs and
//! experiment E11).
//!
//! The transitions live in one place, `TwigCore`: one query's machine,
//! stacks and per-document state. [`TwigM`] owns one core and dispatches
//! events to it through the machine's own symbol index;
//! [`crate::MultiTwigM`] owns one core per registered query and
//! dispatches through an index shared by all of them.

use twigm_sax::{Attribute, NodeId, Symbol, SymbolTable};
use twigm_xpath::Path;

use crate::engine::StreamEngine;
use crate::fxhash::FxHashSet;
use crate::machine::{Machine, MachineError};
use crate::observe::{MachineObserver, NoopObserver};
use crate::stats::EngineStats;

/// One stack element: the paper's `(level, branch match, candidates)`
/// triple, plus accumulated text when the node has text-valued
/// predicates.
#[derive(Debug, Clone)]
struct Entry {
    /// Level of the matched active XML element.
    level: u32,
    /// Branch-match bitset over the node's conditions.
    slots: u64,
    /// Undecided candidate node ids (sorted ascending).
    candidates: Vec<u64>,
    /// Concatenated direct text content (only maintained when the node
    /// has `text()`-valued conditions).
    text: String,
    /// Child-match counters for `count()` conditions (empty unless the
    /// node has them).
    counts: Vec<u32>,
}

/// Where a [`TwigCore`] delivers decided results. Each owner passes its
/// own concrete sink, so the call is monomorphised, not dynamic.
pub(crate) trait ResultSink {
    /// Offers a decided result; returns whether the owner kept it (a
    /// filtering owner keeps one per query and document).
    fn accept(&mut self, id: NodeId) -> bool;
}

impl ResultSink for Vec<NodeId> {
    #[inline]
    fn accept(&mut self, id: NodeId) -> bool {
        self.push(id);
        true
    }
}

/// Live stack entries and buffered candidate ids, summed over every core
/// an owner runs: the gauges behind `peak_entries` and `peak_candidates`.
#[derive(Debug, Default)]
pub(crate) struct Gauges {
    pub(crate) entries: u64,
    pub(crate) candidates: u64,
}

impl Gauges {
    /// Raises the peak statistics to the current gauges.
    pub(crate) fn record_peaks(&self, stats: &mut EngineStats) {
        stats.peak_entries = stats.peak_entries.max(self.entries);
        stats.peak_candidates = stats.peak_candidates.max(self.candidates);
    }
}

/// What an owner lends a [`TwigCore`] for its transitions: its work
/// counters, its live gauges, its observer and its result sink.
pub(crate) struct Ctx<'a, O, S> {
    pub(crate) stats: &'a mut EngineStats,
    pub(crate) live: &'a mut Gauges,
    pub(crate) observer: &'a mut O,
    pub(crate) sink: &'a mut S,
}

/// One query's TwigM runtime and the only implementation of its δs/δe
/// transitions. The owner routes each event to the machine nodes it
/// concerns (`start`/`end` act on one node) and turns its live gauges
/// into peak statistics.
pub(crate) struct TwigCore {
    machine: Machine,
    stacks: Vec<Vec<Entry>>,
    /// Ids already emitted in the current document.
    emitted: FxHashSet<u64>,
    /// Sibling counters for positional predicates: per positional node,
    /// indexed by the parent element's level.
    pos_counts: Vec<Vec<u32>>,
    /// Added to machine-node indices in observer hooks, so the nodes of
    /// several cores share one flat id space.
    obs_base: u32,
}

impl TwigCore {
    /// A core over `machine` whose observer node ids start at `obs_base`.
    pub(crate) fn new(machine: Machine, obs_base: u32) -> Self {
        TwigCore {
            stacks: vec![Vec::new(); machine.len()],
            pos_counts: vec![Vec::new(); machine.len()],
            machine,
            emitted: FxHashSet::default(),
            obs_base,
        }
    }

    /// The compiled machine.
    pub(crate) fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The observer node id of machine node 0.
    pub(crate) fn obs_base(&self) -> u32 {
        self.obs_base
    }

    /// A start tag at `level` opens a fresh sibling scope for its
    /// children: resets the positional counters keyed by that level.
    pub(crate) fn reset_positions(&mut self, level: u32) {
        for &v in self.machine.pos_nodes() {
            let counts = &mut self.pos_counts[v];
            if counts.len() <= level as usize {
                counts.resize(level as usize + 1, 0);
            }
            counts[level as usize] = 0;
        }
    }

    /// Routes character data to entries that accumulate text: the top
    /// entry of a text-needing node, if it is the element at `level`.
    pub(crate) fn text_at(&mut self, text: &str, level: u32) {
        for &v in self.machine.text_nodes() {
            if let Some(top) = self.stacks[v].last_mut() {
                if top.level == level {
                    top.text.push_str(text);
                }
            }
        }
    }

    /// δs (Algorithm 1) for machine node `v`, which the owner's dispatch
    /// found labelled with the element's tag or `*`. Returns whether the
    /// element became a solution candidate.
    #[inline]
    pub(crate) fn start<O: MachineObserver, S: ResultSink>(
        &mut self,
        v: usize,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
        cx: &mut Ctx<'_, O, S>,
    ) -> bool {
        let node = &self.machine.nodes[v];
        let qualified = match node.parent {
            None => {
                cx.stats.qualification_probes += 1;
                node.edge.test(level as i64)
            }
            Some(p) => {
                let mut found = false;
                for e in self.stacks[p].iter().rev() {
                    cx.stats.qualification_probes += 1;
                    if node.edge.test(level as i64 - e.level as i64) {
                        found = true;
                        break;
                    }
                }
                found
            }
        };
        if !qualified {
            return false;
        }
        let mut slots = node.start_slots(attrs);
        if !node.pos_conds.is_empty() {
            // The element's 1-based position among qualifying siblings
            // (its parent element sits one level up).
            let parent_level = level.saturating_sub(1) as usize;
            let counts = &mut self.pos_counts[v];
            if counts.len() <= parent_level {
                counts.resize(parent_level + 1, 0);
            }
            counts[parent_level] += 1;
            let position = counts[parent_level];
            for &(slot, n) in &node.pos_conds {
                if position == n {
                    slots |= 1 << slot;
                }
            }
        }
        let is_sol = node.is_sol;
        let mut candidates = Vec::new();
        // The return node's own predicates may already hold: then the
        // candidate is delivered immediately instead of buffered.
        let eager_sol = is_sol && node.eager_safe && node.formula.eval(slots);
        if is_sol && !eager_sol {
            candidates.push(id.get());
            cx.live.candidates += 1;
        }
        self.stacks[v].push(Entry {
            level,
            slots,
            candidates,
            text: String::new(),
            counts: vec![0; node.count_conds.len()],
        });
        cx.stats.pushes += 1;
        cx.live.entries += 1;
        if O::ENABLED {
            cx.observer.on_push(self.obs_base + v as u32, level, is_sol);
        }
        if eager_sol {
            self.eager_deliver(v, &[level], &[id.get()], cx);
        }
        is_sol
    }

    /// δe (Algorithm 1) for machine node `v`: pops its entry for the
    /// element closing at `level`, if it has one, evaluates the formula
    /// and uploads the match to the parent's entries or emits it.
    #[inline]
    pub(crate) fn end<O: MachineObserver, S: ResultSink>(
        &mut self,
        v: usize,
        level: u32,
        cx: &mut Ctx<'_, O, S>,
    ) {
        let Some(top) = self.stacks[v].last() else {
            return;
        };
        if top.level != level {
            return;
        }
        let mut entry = self.stacks[v].pop().expect("checked non-empty");
        cx.stats.pops += 1;
        cx.live.entries -= 1;
        cx.live.candidates -= entry.candidates.len() as u64;
        let node = &self.machine.nodes[v];
        entry.slots |= node.end_slots(&entry.text, &entry.counts);
        let satisfied = node.formula.eval(entry.slots);
        if O::ENABLED {
            cx.observer
                .on_pop(self.obs_base + v as u32, level, satisfied);
        }
        if !satisfied {
            // Failed predicates: the entry and every pattern match it
            // participates in are pruned, without enumeration.
            return;
        }
        let Some(p) = node.parent else {
            // Machine root: the candidates are decided solutions.
            for &id in &entry.candidates {
                Self::emit(&mut self.emitted, id, cx);
            }
            return;
        };
        let slot_bit = 1u64 << node.parent_slot.expect("non-root has a slot");
        let edge = node.edge;
        let parent_counter = node.parent_counter;
        let pnode = &self.machine.nodes[p];
        // Targets whose formula completed with this upload: their
        // buffered candidates are decided and flush upward immediately.
        let mut flush: Vec<(u32, Vec<u64>)> = Vec::new();
        for e in self.stacks[p].iter_mut() {
            cx.stats.upload_probes += 1;
            if !edge.test(level as i64 - e.level as i64) {
                continue;
            }
            match parent_counter {
                // A counted child: increment instead of setting a bit
                // (the bit is decided at the parent's pop by the
                // comparison).
                Some(ci) => e.counts[ci] += 1,
                None => e.slots |= slot_bit,
            }
            let inserted =
                Self::merge_candidates(&mut e.candidates, &entry.candidates, &self.emitted);
            cx.stats.candidates_merged += inserted;
            cx.live.candidates += inserted;
            if O::ENABLED {
                cx.observer
                    .on_upload(self.obs_base + v as u32, self.obs_base + p as u32, inserted);
            }
            if pnode.eager_safe
                && !e.candidates.is_empty()
                && pnode.formula.eval(e.slots | pnode.spine_mask)
            {
                let cands = std::mem::take(&mut e.candidates);
                cx.live.candidates -= cands.len() as u64;
                flush.push((e.level, cands));
            }
        }
        for (lvl, cands) in flush {
            self.eager_deliver(p, &[lvl], &cands, cx);
        }
    }

    /// Drops every entry unevaluated, reporting each as an unsatisfied
    /// pop: a filtering owner has already reported this query's match
    /// for the current document.
    pub(crate) fn discard<O: MachineObserver, S>(&mut self, cx: &mut Ctx<'_, O, S>) {
        for (v, stack) in self.stacks.iter_mut().enumerate() {
            for e in stack.drain(..).rev() {
                cx.stats.pops += 1;
                cx.live.entries -= 1;
                cx.live.candidates -= e.candidates.len() as u64;
                if O::ENABLED {
                    cx.observer.on_pop(self.obs_base + v as u32, e.level, false);
                }
            }
        }
    }

    /// The document root closed: nothing is active any more, and ids may
    /// repeat in the next document.
    pub(crate) fn end_document(&mut self) {
        debug_assert!(self.stacks.iter().all(Vec::is_empty));
        self.emitted.clear();
    }

    /// Emits a decided solution unless this document already emitted it.
    #[inline]
    fn emit<O: MachineObserver, S: ResultSink>(
        emitted: &mut FxHashSet<u64>,
        id: u64,
        cx: &mut Ctx<'_, O, S>,
    ) {
        if emitted.insert(id) && cx.sink.accept(NodeId::new(id)) {
            cx.stats.results += 1;
            if O::ENABLED {
                cx.observer.on_result(NodeId::new(id));
            }
        }
    }

    /// Eagerly delivers decided candidates upward from `node`'s entries
    /// at `levels` (ascending).
    ///
    /// A candidate whose chain of stack entries all have *monotone,
    /// already-satisfied* formulas (with each hop's spine-child bit
    /// assumed — the delivery itself proves that subtree matches) is a
    /// decided solution and can be emitted the moment it is discovered,
    /// restoring PathM-grade incrementality ("results should be
    /// distributed … as soon as they are found", paper §1). Entries whose
    /// formula is not yet satisfied buffer the candidates as usual; the
    /// flush points in δs/δe release them when a later bit completes the
    /// formula. The climb visits each machine node once with its set of
    /// qualifying levels, so a delivery costs O(|Q|·R).
    fn eager_deliver<O: MachineObserver, S: ResultSink>(
        &mut self,
        node: usize,
        levels: &[u32],
        cands: &[u64],
        cx: &mut Ctx<'_, O, S>,
    ) {
        let Some(p) = self.machine.nodes[node].parent else {
            // The machine root: the candidates are decided.
            for &id in cands {
                Self::emit(&mut self.emitted, id, cx);
            }
            return;
        };
        let edge = self.machine.nodes[node].edge;
        let pnode = &self.machine.nodes[p];
        let mut next_levels: Vec<u32> = Vec::new();
        for e in self.stacks[p].iter_mut() {
            let qualifies = levels.iter().any(|&l| edge.test(l as i64 - e.level as i64));
            if !qualifies {
                continue;
            }
            if pnode.eager_safe && pnode.formula.eval(e.slots | pnode.spine_mask) {
                next_levels.push(e.level);
            } else {
                let inserted = Self::merge_candidates(&mut e.candidates, cands, &self.emitted);
                cx.stats.candidates_merged += inserted;
                cx.live.candidates += inserted;
            }
        }
        if !next_levels.is_empty() {
            next_levels.dedup();
            self.eager_deliver(p, &next_levels, cands, cx);
        }
    }

    /// Merges `src` (sorted) into `dst` (sorted), skipping already-emitted
    /// ids; returns how many ids were inserted.
    fn merge_candidates(dst: &mut Vec<u64>, src: &[u64], emitted: &FxHashSet<u64>) -> u64 {
        if src.is_empty() {
            return 0;
        }
        if dst.is_empty() {
            dst.extend(src.iter().filter(|id| !emitted.contains(id)));
            return dst.len() as u64;
        }
        // Fast path: candidates arrive in roughly increasing id order, so
        // uploads usually append past the destination's tail.
        let last = *dst.last().expect("checked non-empty");
        if src[0] > last {
            let before = dst.len();
            dst.extend(src.iter().filter(|id| !emitted.contains(id)));
            return (dst.len() - before) as u64;
        }
        // Fast path: single-id uploads (a freshly decided candidate)
        // insert in place instead of rebuilding the vector.
        if src.len() == 1 {
            let id = src[0];
            if emitted.contains(&id) {
                return 0;
            }
            return match dst.binary_search(&id) {
                Ok(_) => 0,
                Err(pos) => {
                    dst.insert(pos, id);
                    1
                }
            };
        }
        let old = std::mem::take(dst);
        dst.reserve(old.len() + src.len());
        let mut inserted = 0;
        let mut a = old.into_iter().peekable();
        let mut b = src
            .iter()
            .copied()
            .filter(|id| !emitted.contains(id))
            .peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&x), Some(&y)) => {
                    if x < y {
                        dst.push(x);
                        a.next();
                    } else if y < x {
                        dst.push(y);
                        b.next();
                        inserted += 1;
                    } else {
                        dst.push(x);
                        a.next();
                        b.next();
                    }
                }
                (Some(_), None) => {
                    dst.extend(a);
                    break;
                }
                (None, Some(_)) => {
                    for y in b {
                        dst.push(y);
                        inserted += 1;
                    }
                    break;
                }
                (None, None) => break,
            }
        }
        inserted
    }
}

/// The TwigM streaming engine.
///
/// The `O` parameter is a [`MachineObserver`] receiving every machine
/// transition; the default [`NoopObserver`] compiles all hooks away, so
/// `TwigM` (no parameter) is exactly the unobserved machine.
pub struct TwigM<O: MachineObserver = NoopObserver> {
    core: TwigCore,
    results: Vec<NodeId>,
    stats: EngineStats,
    live: Gauges,
    observer: O,
}

impl TwigM {
    /// Compiles a query into a TwigM machine.
    pub fn new(query: &Path) -> Result<Self, MachineError> {
        Self::with_observer(query, NoopObserver)
    }

    /// Builds the engine around an existing compiled machine.
    pub fn from_machine(machine: Machine) -> Self {
        Self::from_machine_with(machine, NoopObserver)
    }
}

impl<O: MachineObserver> TwigM<O> {
    /// Compiles a query into a TwigM machine observed by `observer`.
    pub fn with_observer(query: &Path, observer: O) -> Result<Self, MachineError> {
        Ok(Self::from_machine_with(
            Machine::from_path(query)?,
            observer,
        ))
    }

    /// Builds an observed engine around an existing compiled machine.
    pub fn from_machine_with(machine: Machine, observer: O) -> Self {
        TwigM {
            core: TwigCore::new(machine, 0),
            results: Vec::new(),
            stats: EngineStats::default(),
            live: Gauges::default(),
            observer,
        }
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the attached observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the engine, returning the observer (typically to export
    /// what it recorded after a run).
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// The compiled machine.
    pub fn machine(&self) -> &Machine {
        &self.core.machine
    }

    /// Current total number of stack entries (used in tests of the
    /// compact-encoding claim).
    pub fn total_entries(&self) -> usize {
        self.core.stacks.iter().map(Vec::len).sum()
    }

    /// The levels currently on each machine node's stack, bottom to top
    /// (the paper's machine state, as in the figure 2/4 snapshots).
    ///
    /// By Proposition 4.2 these are exactly the levels of the *active*
    /// XML elements that solve each node's prefix subquery — the
    /// invariant `tests/invariants.rs` checks against an independent
    /// oracle after every event.
    pub fn stack_levels(&self) -> Vec<Vec<u32>> {
        self.core
            .stacks
            .iter()
            .map(|stack| stack.iter().map(|e| e.level).collect())
            .collect()
    }

    /// Runs `transition` on every machine node dispatched for `sym` —
    /// the nodes tagged `sym`, then the wildcard nodes, via dense table
    /// indexing: no per-node string compare, no allocation for
    /// non-matching tags — lending the core this engine's counters and
    /// result list.
    #[inline]
    fn each_dispatched(
        &mut self,
        sym: Symbol,
        mut transition: impl FnMut(&mut TwigCore, usize, &mut Ctx<'_, O, Vec<NodeId>>),
    ) {
        let mut cx = Ctx {
            stats: &mut self.stats,
            live: &mut self.live,
            observer: &mut self.observer,
            sink: &mut self.results,
        };
        // Indexing by position instead of holding the slices keeps the
        // core free for the transition's mutations.
        let core = &mut self.core;
        let n_tag = core.machine.tag_nodes(sym).len();
        let n_wild = core.machine.wildcards().len();
        for i in 0..n_tag + n_wild {
            let v = if i < n_tag {
                core.machine.tag_nodes(sym)[i]
            } else {
                core.machine.wildcards()[i - n_tag]
            };
            transition(core, v, &mut cx);
        }
    }
}

impl<O: MachineObserver> StreamEngine for TwigM<O> {
    /// δs (Algorithm 1), dispatching on an interned symbol.
    fn start_element(
        &mut self,
        sym: Symbol,
        _name: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        self.stats.start_events += 1;
        if O::ENABLED {
            self.observer.on_start_element(sym, level, id);
        }
        self.core.reset_positions(level);
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

    /// δe (Algorithm 1), dispatching on an interned symbol.
    fn end_element(&mut self, sym: Symbol, _name: &str, level: u32) {
        self.stats.end_events += 1;
        if O::ENABLED {
            self.observer.on_end_element(sym, level);
        }
        self.each_dispatched(sym, |core, v, cx| core.end(v, level, cx));
        self.live.record_peaks(&mut self.stats);
        if O::ENABLED {
            self.observer.on_event_end(&self.stats);
        }
        if level == 1 {
            self.core.end_document();
            if O::ENABLED {
                self.observer.on_document_end();
            }
        }
    }

    /// Routes character data to entries that accumulate text: the top
    /// entry of a text-needing node, if it is the containing element.
    fn text(&mut self, text: &str, level: u32) {
        self.core.text_at(text, level)
    }

    fn relevance(&self) -> crate::relevance::Relevance {
        crate::relevance::machine_relevance(&self.core.machine)
    }

    fn projection(&self) -> Option<twigm_sax::Projection> {
        crate::relevance::machine_projection(&self.core.machine)
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        Some(self.core.machine.symbols())
    }

    fn needs_attributes(&self, sym: Symbol) -> bool {
        self.core.machine.needs_attributes(sym)
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.results)
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn machine_size(&self) -> Option<usize> {
        Some(self.core.machine.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_engine, ByName};
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        let engine = TwigM::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
        ids.sort_unstable();
        ids
    }

    /// Builds the paper's figure 1(a) document for a given `n`:
    /// `a₁…aₙ` nested, `aₙ` containing `b₁…bₙ` nested, `bₙ` containing
    /// `c₁`, plus `d₁` under `a₁` and `e₁` under `b₁` (closing sides).
    fn figure1_doc(n: usize) -> String {
        let mut xml = String::new();
        for _ in 0..n {
            xml.push_str("<a>");
        }
        for _ in 0..n {
            xml.push_str("<b>");
        }
        xml.push_str("<c/>");
        for i in 0..n {
            if i == n - 1 {
                xml.push_str("<e/>"); // e under b1, the outermost b
            }
            xml.push_str("</b>");
        }
        for i in 0..n {
            if i == n - 1 {
                xml.push_str("<d/>"); // d under a1, the outermost a
            }
            xml.push_str("</a>");
        }
        xml
    }

    #[test]
    fn paper_example_q1_selects_c1() {
        // //a[d]//b[e]//c over figure 1(a): c1 is a solution because the
        // match (a1, b1, c1) satisfies both predicates.
        let xml = figure1_doc(4);
        let ids = run("//a[d]//b[e]//c", &xml);
        assert_eq!(ids.len(), 1);
        // c is the (2n+1)-th start tag: ids are 0-based pre-order.
        assert_eq!(ids[0], 8);
    }

    #[test]
    fn paper_intro_variant_with_child_axis() {
        // //a[d]/b[e]//c: only (an, b1) are parent/child, but e is under
        // b1 and d under a1 — an has no d child, so no match.
        let xml = figure1_doc(3);
        assert!(run("//a[d]/b[e]//c", &xml).is_empty());
    }

    #[test]
    fn compact_encoding_stores_2n_entries_for_n_squared_matches() {
        // The paper's headline claim (§1 contribution 1): processing Q1
        // on figure 1(a), TwigM stores 2n+1 entries to encode n² matches.
        let n = 16;
        let xml = figure1_doc(n);
        let mut engine = TwigM::new(&parse("//a[d]//b[e]//c").unwrap()).unwrap();
        let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
        let stats = engine.stats();
        // Peak: n entries on a's stack + n on b's stack + 1 on c's.
        assert_eq!(stats.peak_entries, 2 * n as u64 + 1);
        // And never an explicit match tuple.
        assert_eq!(stats.tuples_materialized, 0);
    }

    #[test]
    fn predicate_failure_prunes_candidates() {
        // No e anywhere: c1 must not be emitted.
        let xml = "<a><b><c/></b><d/></a>";
        assert!(run("//a[d]//b[e]//c", xml).is_empty());
        // No d: same.
        let xml = "<a><b><c/><e/></b></a>";
        assert!(run("//a[d]//b[e]//c", xml).is_empty());
        // Both present: match.
        let xml = "<a><b><c/><e/></b><d/></a>";
        assert_eq!(run("//a[d]//b[e]//c", xml).len(), 1);
    }

    #[test]
    fn results_are_deduplicated_across_root_entries() {
        // Both nested a's satisfy [d]; c must be reported once.
        let xml = "<a><a><b><c/><e/></b><d/></a><d/></a>";
        let ids = run("//a[d]//b[e]//c", xml);
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn multiple_solutions_all_emitted() {
        let xml = "<r><a><b/><c><b/></c></a><a><b/></a></r>";
        let ids = run("//a//b", xml);
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn attribute_predicates() {
        let xml = r#"<r><p id="1"><q/></p><p><q/></p></r>"#;
        assert_eq!(run("//p[@id]/q", xml).len(), 1);
        assert_eq!(run("//p[@id = '1']/q", xml).len(), 1);
        assert_eq!(run("//p[@id = '2']/q", xml).len(), 0);
        assert_eq!(run("//p[@id != '2']/q", xml).len(), 1);
    }

    #[test]
    fn numeric_attribute_comparisons() {
        let xml = r#"<r><i v="5"/><i v="15"/><i v="x"/></r>"#;
        assert_eq!(run("//i[@v > 10]", xml).len(), 1);
        assert_eq!(run("//i[@v <= 5]", xml).len(), 1);
        assert_eq!(run("//i[@v >= 5]", xml).len(), 2);
    }

    #[test]
    fn text_value_predicates() {
        let xml = "<r><t>alpha</t><t>beta</t><t/></r>";
        assert_eq!(run("//t[text() = 'alpha']", xml), vec![1]);
        assert_eq!(run("//t[text()]", xml).len(), 2);
        assert_eq!(run("//t[text() != 'alpha']", xml).len(), 1);
    }

    #[test]
    fn element_value_predicates_compare_child_text() {
        let xml = "<r><item><price>5</price></item><item><price>20</price></item></r>";
        assert_eq!(run("//item[price < 10]", xml).len(), 1);
        assert_eq!(run("//item[price]", xml).len(), 2);
    }

    #[test]
    fn chunked_text_accumulates() {
        // Text arriving in several events must concatenate before the
        // comparison at the end tag.
        let mut engine = TwigM::new(&parse("//t[text() = 'abc']").unwrap()).unwrap();
        engine.start_named("r", &[], 1, NodeId::new(0));
        engine.start_named("t", &[], 2, NodeId::new(1));
        engine.text("a", 2);
        engine.text("b", 2);
        engine.text("c", 2);
        engine.end_named("t", 2);
        engine.end_named("r", 1);
        assert_eq!(engine.take_results().len(), 1);
    }

    #[test]
    fn text_routed_to_innermost_element_only() {
        // <t>out<t>in</t></t>: each t entry sees only its direct text.
        let xml = "<r><t>out<t>in</t></t></r>";
        assert_eq!(run("//t[text() = 'in']", xml), vec![2]);
        assert_eq!(run("//t[text() = 'out']", xml), vec![1]);
    }

    #[test]
    fn or_and_nested_predicates() {
        let xml = "<r><a><b/></a><a><c/></a><a><d/></a></r>";
        assert_eq!(run("//a[b or c]", xml).len(), 2);
        assert_eq!(run("//a[b and c]", xml).len(), 0);
        let xml = "<r><a><b><c/></b></a><a><b/></a></r>";
        assert_eq!(run("//a[b[c]]", xml).len(), 1);
    }

    #[test]
    fn wildcard_queries() {
        let xml = "<r><a><x/></a><b><y/></b></r>";
        assert_eq!(run("//*", xml).len(), 5);
        assert_eq!(run("/r/*", xml).len(), 2);
        assert_eq!(run("/r/*/x", xml).len(), 1);
        assert_eq!(run("/*/a", xml).len(), 1);
    }

    #[test]
    fn folded_wildcard_distances() {
        let xml = "<r><a><m><b/></m></a><a><b/></a></r>";
        // /r/a/*/b: only the b under m qualifies.
        assert_eq!(run("/r/a/*/b", xml).len(), 1);
    }

    #[test]
    fn recursive_descendant_predicates() {
        // Deeply recursive sections: [title] at several levels.
        let xml = "<doc><sec><title/><sec><sec><title/><p/></sec></sec></sec></doc>";
        assert_eq!(run("//sec[title]//p", xml).len(), 1);
        assert_eq!(run("//sec[title]/p", xml).len(), 1);
    }

    #[test]
    fn sol_with_its_own_predicate() {
        let xml = "<r><a><c><x/></c></a><a><c/></a></r>";
        assert_eq!(run("//a/c[x]", xml).len(), 1);
    }

    #[test]
    fn predicate_path_with_descendant_axis() {
        let xml = "<r><a><b><deep><e/></deep></b></a><a><b/></a></r>";
        assert_eq!(run("//a[.//e]", xml).len(), 1);
        assert_eq!(run("//a[b//e]", xml).len(), 1);
        assert_eq!(run("//a[b/e]", xml).len(), 0);
    }

    #[test]
    fn deep_value_path_with_attribute() {
        let xml = r#"<r><a><b><c id="x"/></b></a><a><b><c/></b></a></r>"#;
        assert_eq!(run("//a[b/c/@id = 'x']", xml).len(), 1);
        assert_eq!(run("//a[b/c/@id]", xml).len(), 1);
    }

    #[test]
    fn same_tag_at_multiple_query_positions() {
        // //a//a: nested a's.
        let xml = "<a><a><a/></a></a>";
        assert_eq!(run("//a//a", xml).len(), 2);
        assert_eq!(run("//a//a//a", xml).len(), 1);
    }

    #[test]
    fn root_edge_conditions() {
        let xml = "<a><a/></a>";
        assert_eq!(run("/a", xml), vec![0]);
        assert_eq!(run("//a", xml).len(), 2);
        // /a/a matches only the nested one.
        assert_eq!(run("/a/a", xml), vec![1]);
    }

    #[test]
    fn empty_result_take_is_idempotent() {
        let mut engine = TwigM::new(&parse("//zzz").unwrap()).unwrap();
        engine.start_named("r", &[], 1, NodeId::new(0));
        engine.end_named("r", 1);
        assert!(engine.take_results().is_empty());
        assert!(engine.take_results().is_empty());
    }

    #[test]
    fn engine_is_reusable_across_documents() {
        let q = parse("//a[b]").unwrap();
        let mut engine = TwigM::new(&q).unwrap();
        for _ in 0..2 {
            engine.start_named("a", &[], 1, NodeId::new(0));
            engine.start_named("b", &[], 2, NodeId::new(1));
            engine.end_named("b", 2);
            engine.end_named("a", 1);
            assert_eq!(engine.take_results().len(), 1);
            assert_eq!(engine.total_entries(), 0);
        }
    }

    #[test]
    fn stats_track_work() {
        let xml = figure1_doc(4);
        let engine = TwigM::new(&parse("//a[d]//b[e]//c").unwrap()).unwrap();
        let (_, engine) = run_engine(engine, xml.as_bytes()).unwrap();
        let s = engine.stats();
        assert_eq!(s.start_events, 11);
        assert_eq!(s.end_events, 11);
        assert!(s.pushes >= 9);
        assert_eq!(s.pushes, s.pops);
        assert!(s.work() > 0);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::engine::run_engine;
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        let engine = TwigM::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn contains_on_text_and_attributes() {
        let xml = r#"<r><p k="alpha">hello world</p><p k="beta">goodbye</p></r>"#;
        assert_eq!(run("//p[contains(text(), 'world')]", xml), vec![1]);
        assert_eq!(run("//p[contains(@k, 'eta')]", xml), vec![2]);
        assert_eq!(run("//p[starts-with(text(), 'good')]", xml), vec![2]);
        assert_eq!(run("//p[ends-with(@k, 'pha')]", xml), vec![1]);
        assert_eq!(run("//p[contains(text(), 'zzz')]", xml).len(), 0);
    }

    #[test]
    fn contains_on_child_element_text() {
        let xml = "<r><item><name>blue chair</name></item><item><name>red desk</name></item></r>";
        assert_eq!(run("//item[contains(name, 'chair')]", xml), vec![1]);
        assert_eq!(run("//r[contains(.//name, 'desk')]", xml), vec![0]);
    }

    #[test]
    fn contains_requires_text_to_exist() {
        // An element with no text never satisfies contains, even with ''.
        let xml = "<r><p/><p>x</p></r>";
        assert_eq!(run("//p[contains(text(), '')]", xml), vec![2]);
    }

    #[test]
    fn positional_predicates_select_by_sibling_index() {
        let xml = "<r><a/><a/><b/><a/></r>";
        assert_eq!(run("/r/a[1]", xml), vec![1]);
        assert_eq!(run("/r/a[2]", xml), vec![2]);
        // Position counts only name-matching siblings: the 3rd a is
        // after the b.
        assert_eq!(run("/r/a[3]", xml), vec![4]);
        assert_eq!(run("/r/a[4]", xml).len(), 0);
    }

    #[test]
    fn positions_reset_per_parent() {
        let xml = "<r><g><a/><a/></g><g><a/></g></r>";
        // Each g's first a.
        assert_eq!(run("//g/a[1]", xml), vec![2, 5]);
        assert_eq!(run("//g/a[2]", xml), vec![3]);
    }

    #[test]
    fn position_with_following_filter_matches_xpath() {
        // a[2][b]: the 2nd a, kept only if it has b.
        let xml = "<r><a/><a><b/></a></r>";
        assert_eq!(run("/r/a[2][b]", xml), vec![2]);
        let xml = "<r><a><b/></a><a/></r>";
        assert_eq!(run("/r/a[2][b]", xml).len(), 0);
    }

    #[test]
    fn position_on_wildcard_counts_all_children() {
        let xml = "<r><x/><y/><z/></r>";
        assert_eq!(run("/r/*[2]", xml), vec![2]);
    }

    #[test]
    fn position_under_recursive_parents() {
        // Nested g's: each keeps its own counters. Outer g's children
        // are a(1), g(2), a(5): its 2nd a is id 5. Inner g's 2nd a is 4.
        let xml = "<g><a/><g><a/><a/></g><a/></g>";
        assert_eq!(run("//g/a[2]", xml), vec![4, 5]);
    }

    #[test]
    fn position_needs_child_axis() {
        assert!(matches!(
            TwigM::new(&parse("//a[2]").unwrap()),
            Err(crate::machine::MachineError::PositionNeedsChildAxis { .. })
        ));
        // Child axis after a descendant step is fine.
        assert!(TwigM::new(&parse("//g/a[2]").unwrap()).is_ok());
    }

    #[test]
    fn position_in_nested_predicates() {
        // [b[2]] — elements whose 2nd b... exists (i.e. have >= 2 b's
        // and the 2nd one matches b, trivially true).
        let xml = "<r><a><b/><b/></a><a><b/></a></r>";
        assert_eq!(run("//a[b[2]]", xml), vec![1]);
    }
}

#[cfg(test)]
mod not_count_tests {
    use super::*;
    use crate::engine::run_engine;
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        let engine = TwigM::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn not_negates_child_existence() {
        let xml = "<r><a><b/></a><a><c/></a></r>";
        assert_eq!(run("//a[not(b)]", xml), vec![3]);
        assert_eq!(run("//a[not(not(b))]", xml), vec![1]);
        assert_eq!(run("//a[not(b or c)]", xml).len(), 0);
        assert_eq!(run("//a[not(b and c)]", xml).len(), 2);
    }

    #[test]
    fn not_with_value_tests() {
        let xml = r#"<r><p k="1">x</p><p>y</p></r>"#;
        assert_eq!(run("//p[not(@k)]", xml), vec![2]);
        assert_eq!(run("//p[not(text() = 'x')]", xml), vec![2]);
        // Negation of an empty-node-set comparison is true.
        let xml = "<r><p/></r>";
        assert_eq!(run("//p[not(text() = 'x')]", xml), vec![1]);
    }

    #[test]
    fn not_over_descendant_paths() {
        let xml = "<r><a><x><e/></x></a><a><x/></a></r>";
        assert_eq!(run("//a[not(.//e)]", xml), vec![4]);
    }

    #[test]
    fn count_compares_child_matches() {
        let xml = "<r><a><b/></a><a><b/><b/></a><a/></r>";
        assert_eq!(run("//a[count(b) >= 2]", xml), vec![3]);
        assert_eq!(run("//a[count(b) = 1]", xml), vec![1]);
        assert_eq!(run("//a[count(b) = 0]", xml), vec![6]);
        assert_eq!(run("//a[count(b) < 2]", xml), vec![1, 6]);
    }

    #[test]
    fn count_with_descendant_axis_counts_all() {
        let xml = "<r><a><x><b/></x><b/></a><a><b/></a></r>";
        assert_eq!(run("//a[count(.//b) = 2]", xml), vec![1]);
        assert_eq!(run("//a[count(b) = 1]", xml), vec![1, 5]);
    }

    #[test]
    fn count_of_filtered_children() {
        // Only b's carrying @k count.
        let xml = r#"<r><a><b k="1"/><b/></a><a><b k="1"/><b k="2"/></a></r>"#;
        assert_eq!(run("//a[count(b[@k]) >= 2]", xml), vec![4]);
    }

    #[test]
    fn count_on_recursive_data_counts_per_context() {
        let xml = "<a><b/><a><b/><b/></a></a>";
        // Outer a has 1 b child (+1 nested a); inner has 2.
        assert_eq!(run("//a[count(b) = 2]", xml), vec![2]);
        // Descendant count: outer sees 3 b's.
        assert_eq!(run("//a[count(.//b) = 3]", xml), vec![0]);
    }

    #[test]
    fn count_combined_with_other_predicates() {
        let xml = "<r><a><b/><b/><c/></a><a><b/><b/></a></r>";
        assert_eq!(run("//a[count(b) = 2][c]", xml), vec![1]);
        assert_eq!(run("//a[count(b) = 2 and not(c)]", xml), vec![5]);
    }

    #[test]
    fn parser_restrictions_hold() {
        assert!(parse("//a[count(b/c) = 1]").is_err());
        assert!(parse("//a[count(@k) = 1]").is_err());
        assert!(parse("//a[count(b)]").is_err());
        assert!(parse("//a[count(b) = 1.5]").is_err());
        assert!(parse("//a[not(b)]").is_ok());
        assert!(parse("//a[not b]").is_err());
    }
}

#[cfg(test)]
mod eager_delivery_tests {
    use super::*;
    use crate::engine::{run_engine, ByName};
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        let engine = TwigM::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn satisfied_path_emits_at_start_tag() {
        let mut engine = TwigM::new(&parse("//a[d]/b").unwrap()).unwrap();
        engine.start_named("a", &[], 1, NodeId::new(0));
        engine.start_named("d", &[], 2, NodeId::new(1));
        engine.end_named("d", 2);
        let was_candidate = engine.start_named("b", &[], 2, NodeId::new(2));
        assert!(was_candidate);
        assert_eq!(engine.take_results(), vec![NodeId::new(2)]);
        // Zero candidates ever buffered.
        assert_eq!(engine.stats().peak_candidates, 0);
        engine.end_named("b", 2);
        engine.end_named("a", 1);
        assert!(engine.take_results().is_empty(), "no re-emission at pops");
    }

    #[test]
    fn eager_delivery_deduplicates_across_satisfied_ancestors() {
        // Both nested a's satisfied: the b must be emitted exactly once
        // even though two satisfied chains deliver it.
        let xml = "<a><d/><a><d/><b/></a></a>";
        assert_eq!(run("//a[d]//b", xml), vec![4]);
        let xml = "<a><d/><a><d/><b/><b/></a></a>";
        assert_eq!(run("//a[d]//b", xml), vec![4, 5]);
    }

    #[test]
    fn eager_with_or_formulas() {
        let mut engine = TwigM::new(&parse("//a[d or e]/b").unwrap()).unwrap();
        engine.start_named("a", &[], 1, NodeId::new(0));
        engine.start_named("e", &[], 2, NodeId::new(1));
        engine.end_named("e", 2);
        engine.start_named("b", &[], 2, NodeId::new(2));
        // Or-formula already satisfied by e: emitted at start.
        assert_eq!(engine.take_results(), vec![NodeId::new(2)]);
        engine.end_named("b", 2);
        engine.end_named("a", 1);
    }

    #[test]
    fn not_formulas_disable_eager_but_stay_correct() {
        // not(c) can flip false after being true: no early emission, but
        // the final answers are right either way.
        let xml = "<r><a><d/><b/></a><a><d/><b/><c/></a></r>";
        assert_eq!(run("//a[d][not(c)]/b", xml), vec![3]);
        let mut engine = TwigM::new(&parse("//a[not(c)]/b").unwrap()).unwrap();
        engine.start_named("a", &[], 1, NodeId::new(0));
        engine.start_named("b", &[], 2, NodeId::new(1));
        engine.end_named("b", 2);
        // Not yet decidable: c could still arrive.
        assert!(engine.take_results().is_empty());
        engine.end_named("a", 1);
        assert_eq!(engine.take_results(), vec![NodeId::new(1)]);
    }

    #[test]
    fn attribute_predicates_decide_at_start() {
        // All conditions on the chain are start-evaluable: instant result.
        let mut engine = TwigM::new(&parse("//a[@k]/b[@m]").unwrap()).unwrap();
        let attr_k = [twigm_sax::Attribute {
            name: "k",
            value: std::borrow::Cow::Borrowed("1"),
        }];
        let attr_m = [twigm_sax::Attribute {
            name: "m",
            value: std::borrow::Cow::Borrowed("2"),
        }];
        engine.start_named("a", &attr_k, 1, NodeId::new(0));
        engine.start_named("b", &attr_m, 2, NodeId::new(1));
        assert_eq!(engine.take_results(), vec![NodeId::new(1)]);
        engine.end_named("b", 2);
        engine.end_named("a", 1);
    }

    #[test]
    fn buffered_candidates_flush_when_a_later_bit_completes_the_formula() {
        // b's buffer in a until d arrives; the flush happens at </d>, not
        // at </a>.
        let mut engine = TwigM::new(&parse("//a[d]/b").unwrap()).unwrap();
        engine.start_named("a", &[], 1, NodeId::new(0));
        for i in 0..5u64 {
            engine.start_named("b", &[], 2, NodeId::new(1 + i));
            engine.end_named("b", 2);
        }
        assert!(engine.take_results().is_empty());
        assert_eq!(engine.stats().peak_candidates, 5);
        engine.start_named("d", &[], 2, NodeId::new(6));
        engine.end_named("d", 2);
        assert_eq!(engine.take_results().len(), 5);
        engine.end_named("a", 1);
        assert!(engine.take_results().is_empty());
    }
}
