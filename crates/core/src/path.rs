//! The PathM machine (paper §3.1): streaming evaluation of `XP{/,//,*}`
//! — queries without predicates.
//!
//! PathM is TwigM stripped of everything predicates require: stack
//! entries are bare levels (no branch match, no candidate sets), and a
//! match of the return node is a *final* answer the moment its start tag
//! arrives — maximally incremental output, which is why [`crate::Engine`]
//! prefers PathM whenever the query allows it.

use twigm_sax::{Attribute, NodeId, Symbol, SymbolTable};
use twigm_xpath::Path;

use crate::engine::StreamEngine;
use crate::machine::{Machine, MachineError};
use crate::observe::{MachineObserver, NoopObserver};
use crate::stats::EngineStats;

/// The PathM streaming engine.
///
/// Generic over a [`MachineObserver`]; the default [`NoopObserver`]
/// compiles every hook away.
pub struct PathM<O: MachineObserver = NoopObserver> {
    machine: Machine,
    /// Per machine node: the stack of levels of active matches.
    stacks: Vec<Vec<u32>>,
    results: Vec<NodeId>,
    stats: EngineStats,
    live_entries: u64,
    observer: O,
}

impl PathM {
    /// Compiles a predicate-free query.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the query is predicate-free; in release builds a
    /// query with predicates would be evaluated ignoring them, so
    /// [`crate::Engine::new`] should be used instead of constructing
    /// PathM directly for untrusted queries.
    pub fn new(query: &Path) -> Result<Self, MachineError> {
        Self::with_observer(query, NoopObserver)
    }
}

impl<O: MachineObserver> PathM<O> {
    /// Compiles a predicate-free query with an attached observer; see
    /// [`PathM::new`] for the class restriction.
    pub fn with_observer(query: &Path, observer: O) -> Result<Self, MachineError> {
        debug_assert!(
            query.is_predicate_free(),
            "PathM evaluates XP{{/,//,*}}; use TwigM for predicates"
        );
        let machine = Machine::from_path(query)?;
        let stacks = vec![Vec::new(); machine.len()];
        Ok(PathM {
            machine,
            stacks,
            results: Vec::new(),
            stats: EngineStats::default(),
            live_entries: 0,
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

impl<O: MachineObserver> StreamEngine for PathM<O> {
    /// δs, dispatching on an interned symbol (dense tables, no per-node
    /// string compares).
    fn start_element(
        &mut self,
        sym: Symbol,
        _name: &str,
        _attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        self.stats.start_events += 1;
        if O::ENABLED {
            self.observer.on_start_element(sym, level, id);
        }
        let mut matched_sol = false;
        let n_tag = self.machine.tag_nodes(sym).len();
        let n_wild = self.machine.wildcards().len();
        for i in 0..n_tag + n_wild {
            let v = if i < n_tag {
                self.machine.tag_nodes(sym)[i]
            } else {
                self.machine.wildcards()[i - n_tag]
            };
            let node = &self.machine.nodes[v];
            let qualified = match node.parent {
                None => {
                    self.stats.qualification_probes += 1;
                    node.edge.test(level as i64)
                }
                Some(p) => {
                    let mut found = false;
                    for &l in self.stacks[p].iter().rev() {
                        self.stats.qualification_probes += 1;
                        if node.edge.test(level as i64 - l as i64) {
                            found = true;
                            break;
                        }
                    }
                    found
                }
            };
            if !qualified {
                continue;
            }
            self.stacks[v].push(level);
            self.stats.pushes += 1;
            self.live_entries += 1;
            if O::ENABLED {
                self.observer.on_push(v as u32, level, node.is_sol);
            }
            if node.is_sol {
                // No predicates can fail later: emit immediately.
                self.results.push(id);
                self.stats.results += 1;
                if O::ENABLED {
                    self.observer.on_result(id);
                }
                matched_sol = true;
            }
        }
        self.stats.peak_entries = self.stats.peak_entries.max(self.live_entries);
        if O::ENABLED {
            self.observer.on_event_end(&self.stats);
        }
        matched_sol
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
            if self.stacks[v].last() == Some(&level) {
                self.stacks[v].pop();
                self.stats.pops += 1;
                self.live_entries -= 1;
                if O::ENABLED {
                    // Predicate-free machines have no formula to fail:
                    // every pop is a satisfied pop.
                    self.observer.on_pop(v as u32, level, true);
                }
            }
        }
        if O::ENABLED {
            self.observer.on_event_end(&self.stats);
            if level == 1 {
                self.observer.on_document_end();
            }
        }
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        Some(self.machine.symbols())
    }

    fn relevance(&self) -> crate::relevance::Relevance {
        crate::relevance::machine_relevance(&self.machine)
    }

    fn projection(&self) -> Option<twigm_sax::Projection> {
        crate::relevance::machine_projection(&self.machine)
    }

    fn needs_attributes(&self, _sym: Symbol) -> bool {
        // Predicate-free queries never inspect attributes.
        false
    }

    fn can_be_candidate(&self, sym: Symbol) -> bool {
        self.machine.can_be_candidate(sym)
    }

    /// Always 0: a PathM match is decided at its start tag.
    fn live_candidates(&self) -> Option<u64> {
        Some(0)
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
        let engine = PathM::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
        ids.into_iter().map(NodeId::get).collect()
    }

    #[test]
    fn paper_figure2_example() {
        // M2 = //a//b//c over D2 (nested a*, b*, then c): c1 is output
        // the moment its start tag is seen.
        let xml = "<a><a><b><b><c/></b></b></a></a>";
        assert_eq!(run("//a//b//c", xml), vec![4]);
    }

    #[test]
    fn results_come_in_document_order() {
        let xml = "<r><x><y/></x><y/><x><x><y/></x></x></r>";
        let ids = run("//y", xml);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn child_vs_descendant() {
        let xml = "<r><a><b/><m><b/></m></a></r>";
        assert_eq!(run("//a/b", xml).len(), 1);
        assert_eq!(run("//a//b", xml).len(), 2);
    }

    #[test]
    fn wildcards() {
        let xml = "<r><a><b/></a><c><b/></c></r>";
        assert_eq!(run("/r/*/b", xml).len(), 2);
        assert_eq!(run("/r/*", xml).len(), 2);
        assert_eq!(run("//*", xml).len(), 5);
    }

    #[test]
    fn no_match_means_no_results() {
        assert!(run("//zzz", "<r><a/></r>").is_empty());
        assert!(run("/a/b", "<r><b/></r>").is_empty());
    }

    #[test]
    fn recursion_matches_every_level() {
        let xml = "<a><a><a/></a></a>";
        assert_eq!(run("//a", xml).len(), 3);
        assert_eq!(run("//a//a", xml).len(), 2);
    }

    #[test]
    fn stack_memory_is_bounded_by_depth() {
        let engine = PathM::new(&parse("//a//b").unwrap()).unwrap();
        let xml = "<a><b></b><b></b><b></b><b></b></a>";
        let (_, engine) = run_engine(engine, xml.as_bytes()).unwrap();
        // Peak: one a + one b (siblings pop before the next pushes).
        assert_eq!(engine.stats().peak_entries, 2);
    }
}
