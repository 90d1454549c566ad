//! Zero-cost observation hooks for the stack machines.
//!
//! Every engine in this crate is generic over a [`MachineObserver`] that
//! receives the machine's transitions as they happen: δs/δe firings,
//! stack pushes and pops, predicate uploads, and result emissions. The
//! default observer is [`NoopObserver`], whose associated
//! `ENABLED = false` lets the engines guard every hook call with
//! `if O::ENABLED { .. }` — a compile-time constant, so monomorphization
//! removes the hook calls *and* their argument computation entirely. The
//! `ablation_observer` bench in `twigm-bench` demonstrates that the
//! default build is bit-identical in behavior and within noise of the
//! pre-observer hot path.
//!
//! Concrete observers (a transition tracer, a metrics registry) live in
//! the separate `twigm-obs` crate; this module only defines the contract
//! so the engines stay dependency-free.
//!
//! # Node identifiers
//!
//! Hooks identify machine nodes by their index in [`crate::Machine`]
//! (`0 .. machine.len()`). The multi-query engine
//! [`crate::MultiTwigM`] runs many machines at once and numbers their
//! nodes in one flat space: a query's node `v` is reported as the total
//! node count of the queries registered before it plus `v`, so ids never
//! alias however many queries are registered.
//! [`crate::MultiTwigM::query_node`] maps an id back to its
//! `(query, node)` pair.

use twigm_sax::{NodeId, Symbol};

use crate::stats::EngineStats;

/// Receives machine transitions from an engine.
///
/// All methods default to no-ops so observers implement only what they
/// need. Implementations that do real work keep the default
/// `ENABLED = true`; the engines skip every hook (at compile time) when
/// it is `false`.
pub trait MachineObserver {
    /// Whether the engines should emit hook calls at all. This is a
    /// `const` so the `if O::ENABLED` guards in the machines fold away
    /// under monomorphization for [`NoopObserver`].
    const ENABLED: bool = true;

    /// A δs transition fired: a start tag at `level` with pre-order `id`
    /// reached the machine (before any stack mutation).
    fn on_start_element(&mut self, sym: Symbol, level: u32, id: NodeId) {
        let _ = (sym, level, id);
    }

    /// A δe transition fired: an end tag at `level` reached the machine.
    fn on_end_element(&mut self, sym: Symbol, level: u32) {
        let _ = (sym, level);
    }

    /// Machine node `node` pushed a stack entry for an element at
    /// `level`. `is_candidate` is true when the entry seeds the node's
    /// candidate set (the node is the query's return node).
    fn on_push(&mut self, node: u32, level: u32, is_candidate: bool) {
        let _ = (node, level, is_candidate);
    }

    /// Machine node `node` popped its entry at `level`. `satisfied`
    /// reports whether the entry's predicate formula held — a `false`
    /// pop prunes every pattern match the entry participated in.
    fn on_pop(&mut self, node: u32, level: u32, satisfied: bool) {
        let _ = (node, level, satisfied);
    }

    /// A satisfied `node` uploaded its branch match into one entry of
    /// `parent`'s stack, merging `merged` new candidate ids.
    fn on_upload(&mut self, node: u32, parent: u32, merged: u64) {
        let _ = (node, parent, merged);
    }

    /// A result was decided and emitted.
    fn on_result(&mut self, id: NodeId) {
        let _ = id;
    }

    /// A δs/δe transition completed; `stats` is the engine's cumulative
    /// counter state. Lets observers compute per-event work deltas.
    fn on_event_end(&mut self, stats: &EngineStats) {
        let _ = stats;
    }

    /// The document root closed: all stacks are empty again.
    fn on_document_end(&mut self) {}
}

/// The default observer: all hooks compile to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl MachineObserver for NoopObserver {
    const ENABLED: bool = false;
}

/// Composition: a pair of observers sees every hook, in order. `ENABLED`
/// is the disjunction, so pairing with [`NoopObserver`] costs nothing.
impl<A: MachineObserver, B: MachineObserver> MachineObserver for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_start_element(&mut self, sym: Symbol, level: u32, id: NodeId) {
        if A::ENABLED {
            self.0.on_start_element(sym, level, id);
        }
        if B::ENABLED {
            self.1.on_start_element(sym, level, id);
        }
    }

    fn on_end_element(&mut self, sym: Symbol, level: u32) {
        if A::ENABLED {
            self.0.on_end_element(sym, level);
        }
        if B::ENABLED {
            self.1.on_end_element(sym, level);
        }
    }

    fn on_push(&mut self, node: u32, level: u32, is_candidate: bool) {
        if A::ENABLED {
            self.0.on_push(node, level, is_candidate);
        }
        if B::ENABLED {
            self.1.on_push(node, level, is_candidate);
        }
    }

    fn on_pop(&mut self, node: u32, level: u32, satisfied: bool) {
        if A::ENABLED {
            self.0.on_pop(node, level, satisfied);
        }
        if B::ENABLED {
            self.1.on_pop(node, level, satisfied);
        }
    }

    fn on_upload(&mut self, node: u32, parent: u32, merged: u64) {
        if A::ENABLED {
            self.0.on_upload(node, parent, merged);
        }
        if B::ENABLED {
            self.1.on_upload(node, parent, merged);
        }
    }

    fn on_result(&mut self, id: NodeId) {
        if A::ENABLED {
            self.0.on_result(id);
        }
        if B::ENABLED {
            self.1.on_result(id);
        }
    }

    fn on_event_end(&mut self, stats: &EngineStats) {
        if A::ENABLED {
            self.0.on_event_end(stats);
        }
        if B::ENABLED {
            self.1.on_event_end(stats);
        }
    }

    fn on_document_end(&mut self) {
        if A::ENABLED {
            self.0.on_document_end();
        }
        if B::ENABLED {
            self.1.on_document_end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        pushes: u64,
        pops: u64,
    }

    impl MachineObserver for Counter {
        fn on_push(&mut self, _node: u32, _level: u32, _is_candidate: bool) {
            self.pushes += 1;
        }
        fn on_pop(&mut self, _node: u32, _level: u32, _satisfied: bool) {
            self.pops += 1;
        }
    }

    #[test]
    fn noop_is_disabled_and_pairs_inherit_enablement() {
        const {
            assert!(!NoopObserver::ENABLED);
            assert!(Counter::ENABLED);
            assert!(<(Counter, NoopObserver)>::ENABLED);
            assert!(!<(NoopObserver, NoopObserver)>::ENABLED);
        }
    }

    #[test]
    fn pair_forwards_to_both_sides() {
        let mut pair = (Counter::default(), Counter::default());
        pair.on_push(0, 1, false);
        pair.on_push(1, 2, true);
        pair.on_pop(1, 2, true);
        assert_eq!(pair.0.pushes, 2);
        assert_eq!(pair.1.pushes, 2);
        assert_eq!(pair.0.pops, 1);
    }
}
