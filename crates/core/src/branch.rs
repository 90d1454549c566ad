//! The BranchM machine (paper §3.2): streaming evaluation of `XP{/,[]}`
//! — predicates, but only child axes and no wildcards.
//!
//! With only `/` edges, a query node can match elements at exactly one
//! level, and at most one such element is active at a time. The per-node
//! state therefore degenerates from TwigM's stack to a single optional
//! `(level L, branch match B, candidates C)` record, exactly the machine
//! of the paper's figure 3. On a satisfied end tag the node sets its
//! β-component in the parent's branch match, uploads its candidates, and
//! resets to `(L = -1, B = <F..F>, C = ∅)` — represented here as `None`.

use twigm_sax::{Attribute, NodeId, Symbol, SymbolTable};
use twigm_xpath::Path;

use crate::engine::StreamEngine;
use crate::machine::{Machine, MachineError};
use crate::observe::{MachineObserver, NoopObserver};
use crate::stats::EngineStats;

#[derive(Debug, Clone)]
struct State {
    level: u32,
    slots: u64,
    candidates: Vec<u64>,
    text: String,
}

/// The BranchM streaming engine.
///
/// Generic over a [`MachineObserver`]; the default [`NoopObserver`]
/// compiles every hook away.
pub struct BranchM<O: MachineObserver = NoopObserver> {
    machine: Machine,
    /// Per machine node: the single active match, if any.
    states: Vec<Option<State>>,
    results: Vec<NodeId>,
    stats: EngineStats,
    live_entries: u64,
    live_candidates: u64,
    observer: O,
}

impl BranchM {
    /// Compiles an `XP{/,[]}` query.
    pub fn new(query: &Path) -> Result<Self, MachineError> {
        Self::with_observer(query, NoopObserver)
    }
}

impl<O: MachineObserver> BranchM<O> {
    /// Compiles an `XP{/,[]}` query with an attached observer.
    pub fn with_observer(query: &Path, observer: O) -> Result<Self, MachineError> {
        debug_assert!(
            query.is_branch_only(),
            "BranchM evaluates XP{{/,[]}}; use TwigM for `//` or `*`"
        );
        let machine = Machine::from_path(query)?;
        let states = vec![None; machine.len()];
        Ok(BranchM {
            machine,
            states,
            results: Vec::new(),
            stats: EngineStats::default(),
            live_entries: 0,
            live_candidates: 0,
            observer,
        })
    }

    /// The compiled machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the attached observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the engine, returning the observer.
    pub fn into_observer(self) -> O {
        self.observer
    }
}

impl<O: MachineObserver> StreamEngine for BranchM<O> {
    /// δs, dispatching on an interned symbol. (`XP{/,[]}` has no
    /// wildcards, so the wildcard list is empty and dispatch is just the
    /// dense per-symbol node list.)
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
        let mut became_candidate = false;
        let n_tag = self.machine.tag_nodes(sym).len();
        let n_wild = self.machine.wildcards().len();
        for i in 0..n_tag + n_wild {
            let v = if i < n_tag {
                self.machine.tag_nodes(sym)[i]
            } else {
                self.machine.wildcards()[i - n_tag]
            };
            let node = &self.machine.nodes[v];
            self.stats.qualification_probes += 1;
            let qualified = match node.parent {
                None => node.edge.test(level as i64),
                Some(p) => self.states[p]
                    .as_ref()
                    .is_some_and(|s| node.edge.test(level as i64 - s.level as i64)),
            };
            if !qualified {
                continue;
            }
            let slots = node.start_slots(attrs);
            let mut candidates = Vec::new();
            if node.is_sol {
                candidates.push(id.get());
                became_candidate = true;
                self.live_candidates += 1;
            }
            debug_assert!(
                self.states[v].is_none(),
                "XP{{/,[]}} admits one active match per query node"
            );
            self.states[v] = Some(State {
                level,
                slots,
                candidates,
                text: String::new(),
            });
            self.stats.pushes += 1;
            self.live_entries += 1;
            if O::ENABLED {
                self.observer.on_push(v as u32, level, node.is_sol);
            }
        }
        self.stats.peak_entries = self.stats.peak_entries.max(self.live_entries);
        self.stats.peak_candidates = self.stats.peak_candidates.max(self.live_candidates);
        if O::ENABLED {
            self.observer.on_event_end(&self.stats);
        }
        became_candidate
    }

    /// δe, dispatching on an interned symbol.
    fn end_element(&mut self, sym: Symbol, _name: &str, level: u32) {
        self.stats.end_events += 1;
        if O::ENABLED {
            self.observer.on_end_element(sym, level);
        }
        let n_tag = self.machine.tag_nodes(sym).len();
        let n_wild = self.machine.wildcards().len();
        for i in 0..n_tag + n_wild {
            let v = if i < n_tag {
                self.machine.tag_nodes(sym)[i]
            } else {
                self.machine.wildcards()[i - n_tag]
            };
            let node = &self.machine.nodes[v];
            let matches_level = self.states[v].as_ref().is_some_and(|s| s.level == level);
            if !matches_level {
                continue;
            }
            let mut state = self.states[v].take().expect("checked above");
            self.stats.pops += 1;
            self.live_entries -= 1;
            self.live_candidates -= state.candidates.len() as u64;
            // XP{/,[]} has no count() conditions: no child counters.
            state.slots |= node.end_slots(&state.text, &[]);
            let satisfied = node.formula.eval(state.slots);
            if O::ENABLED {
                self.observer.on_pop(v as u32, level, satisfied);
            }
            if !satisfied {
                continue;
            }
            match node.parent {
                None => {
                    for id in state.candidates {
                        self.results.push(NodeId::new(id));
                        self.stats.results += 1;
                        if O::ENABLED {
                            self.observer.on_result(NodeId::new(id));
                        }
                    }
                }
                Some(p) => {
                    self.stats.upload_probes += 1;
                    if let Some(parent) = self.states[p].as_mut() {
                        parent.slots |= 1 << node.parent_slot.expect("non-root has a slot");
                        self.live_candidates += state.candidates.len() as u64;
                        self.stats.candidates_merged += state.candidates.len() as u64;
                        if O::ENABLED {
                            self.observer.on_upload(
                                v as u32,
                                p as u32,
                                state.candidates.len() as u64,
                            );
                        }
                        // The spine is a chain in XP{/,[]}, so the same id
                        // can never arrive twice: plain append keeps the
                        // set sorted and duplicate-free.
                        parent.candidates.extend(state.candidates);
                    }
                }
            }
        }
        self.stats.peak_candidates = self.stats.peak_candidates.max(self.live_candidates);
        if O::ENABLED {
            self.observer.on_event_end(&self.stats);
            if level == 1 {
                self.observer.on_document_end();
            }
        }
    }

    fn text(&mut self, text: &str, level: u32) {
        for &v in self.machine.text_nodes() {
            if let Some(state) = self.states[v].as_mut() {
                if state.level == level {
                    state.text.push_str(text);
                }
            }
        }
    }

    fn relevance(&self) -> crate::relevance::Relevance {
        crate::relevance::machine_relevance(&self.machine)
    }

    fn projection(&self) -> Option<twigm_sax::Projection> {
        crate::relevance::machine_projection(&self.machine)
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        Some(self.machine.symbols())
    }

    fn needs_attributes(&self, sym: Symbol) -> bool {
        self.machine.needs_attributes(sym)
    }

    fn can_be_candidate(&self, sym: Symbol) -> bool {
        self.machine.can_be_candidate(sym)
    }

    fn live_candidates(&self) -> Option<u64> {
        Some(self.live_candidates)
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.results)
    }

    fn drain_results(&mut self, out: &mut Vec<NodeId>) {
        out.append(&mut self.results);
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn machine_size(&self) -> Option<usize> {
        Some(self.machine.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_engine;
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        let engine = BranchM::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        ids.into_iter().map(NodeId::get).collect()
    }

    #[test]
    fn paper_figure3_example() {
        // Q3 = /a[d]/b[e]/c over figure 3(a): a1(b1(c1, e1), d1).
        let xml = "<a><b><c/><e/></b><d/></a>";
        assert_eq!(run("/a[d]/b[e]/c", xml), vec![2]);
    }

    #[test]
    fn unsatisfied_predicate_discards_candidates() {
        let xml = "<a><b><c/></b><d/></a>"; // no e
        assert!(run("/a[d]/b[e]/c", xml).is_empty());
        let xml = "<a><b><c/><e/></b></a>"; // no d
        assert!(run("/a[d]/b[e]/c", xml).is_empty());
    }

    #[test]
    fn predicate_found_after_candidate() {
        // e1 closes after c1 is seen: candidate must wait, then resolve.
        let xml = "<a><b><c/><e/></b></a>";
        assert_eq!(run("/a/b[e]/c", xml), vec![2]);
    }

    #[test]
    fn repeated_siblings_reset_state() {
        // Two b's under a: only the one with e contributes.
        let xml = "<a><b><c/></b><b><c/><e/></b></a>";
        assert_eq!(run("/a/b[e]/c", xml), vec![4]);
    }

    #[test]
    fn attribute_and_text_predicates() {
        let xml = r#"<a><b id="7"><c>x</c></b></a>"#;
        assert_eq!(run("/a/b[@id = '7']/c", xml).len(), 1);
        assert_eq!(run("/a/b[@id = '8']/c", xml).len(), 0);
        assert_eq!(run("/a/b/c[text() = 'x']", xml).len(), 1);
        assert_eq!(run("/a/b[c = 'x']/c", xml).len(), 1);
    }

    #[test]
    fn multiple_candidates_accumulate() {
        let xml = "<a><b><c/><c/><e/></b></a>";
        assert_eq!(run("/a/b[e]/c", xml).len(), 2);
    }

    #[test]
    fn root_query_returns_root() {
        assert_eq!(run("/a[b]", "<a><b/></a>"), vec![0]);
        assert!(run("/a[b]", "<a><c/></a>").is_empty());
    }

    #[test]
    fn memory_is_one_state_per_node() {
        let engine = BranchM::new(&parse("/a[d]/b[e]/c").unwrap()).unwrap();
        let xml = "<a><b><c/><e/></b><d/></a>";
        let (_, engine) = run_engine(engine, xml.as_bytes()).unwrap();
        // Peak live entries <= |Q| = 5.
        assert!(engine.stats().peak_entries <= 5);
    }
}

#[cfg(test)]
mod attr_return_tests {
    use super::*;
    use crate::engine::run_engine;
    use twigm_xpath::parse;

    #[test]
    fn attribute_return_paths_route_through_branchm() {
        let q = parse("/a/b/@id").unwrap();
        assert!(q.is_branch_only(), "attr paths stay in XP{{/,[]}}");
        let engine = BranchM::new(&q).unwrap();
        let xml = br#"<a><b id="x"/><b/></a>"#;
        let (ids, _) = run_engine(engine, &xml[..]).unwrap();
        // Only the b with the attribute matches.
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0].get(), 1);
    }
}
