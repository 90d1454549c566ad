//! Machine construction (paper §4.2).
//!
//! A TwigM machine mirrors the query tree, except that **interior `*`
//! nodes are folded away**: a chain `v₁ —/— * —//— v₂` becomes a single
//! machine edge from `v₁` to `v₂` labelled `(≥, 2)` — the first component
//! is `≥` if any folded edge was `//` and `=` otherwise, and the second is
//! the number of folded `*` nodes plus one. Wildcards that are the return
//! node, carry predicates, or are leaves keep their machine node (they
//! must be observable).
//!
//! The machine also precomputes per-node dispatch structures: which
//! machine nodes receive a given tag's events, which conditions are
//! evaluated at the start tag (attributes) and which at the end tag
//! (text), and each node's slot index in its parent's branch-match array
//! (the paper's child-identity function β).
//!
//! **Symbol dispatch.** Every tag name test is interned into the
//! machine's [`SymbolTable`] at build time, and dispatch is a dense
//! `Vec<Vec<usize>>` indexed by [`Symbol`] — so the per-event cost is one
//! interner lookup (done once by the stream driver, not per machine
//! node) plus array indexing. Tags no query mentions map to
//! [`Symbol::UNKNOWN`] and reach only the wildcard nodes. `MultiTwigM`
//! builds its own shared index over many machines from their nodes' name
//! tests.

use std::fmt;

use twigm_sax::{Attribute, Symbol, SymbolTable};
use twigm_xpath::{NameTest, Path};

use crate::query::{QCond, QFormula, QNodeId, QueryTree};

/// Maximum number of branch-match slots per machine node (the slot set is
/// a `u64` bitmask).
pub const MAX_SLOTS: usize = 64;

/// An error constructing a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A single query node has more than [`MAX_SLOTS`] conditions.
    TooManySlots {
        /// The offending node's name.
        node: String,
        /// How many conditions it has.
        count: usize,
    },
    /// A positional predicate `[n]` on a step whose axis is `//`:
    /// sibling positions are only well-defined relative to a parent
    /// reached by the child axis.
    PositionNeedsChildAxis {
        /// The offending node's name.
        node: String,
    },
    /// A query was registered with a multi-query engine while a document
    /// was open: its stacks would miss entries for the open elements.
    QueryAddedMidDocument {
        /// Depth of the innermost open element at the time.
        depth: u32,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::TooManySlots { node, count } => write!(
                f,
                "query node `{node}` has {count} predicate conditions; \
                 the limit is {MAX_SLOTS}"
            ),
            MachineError::PositionNeedsChildAxis { node } => write!(
                f,
                "positional predicate on `{node}` requires the child axis \
                 (`/{node}[n]`, not `//{node}[n]`)"
            ),
            MachineError::QueryAddedMidDocument { depth } => write!(
                f,
                "queries must be registered between documents \
                 (a document is open at depth {depth})"
            ),
        }
    }
}

impl std::error::Error for MachineError {}

/// The push condition on a machine edge: `(=, d)` or `(≥, d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCond {
    /// `true` for `=` (exact level difference), `false` for `≥`.
    pub exact: bool,
    /// The required level difference.
    pub dist: u32,
}

impl EdgeCond {
    /// Does a level difference satisfy this condition?
    #[inline]
    pub fn test(&self, diff: i64) -> bool {
        if self.exact {
            diff == self.dist as i64
        } else {
            diff >= self.dist as i64
        }
    }
}

impl fmt::Display for EdgeCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {})",
            if self.exact { "=" } else { "\u{2265}" },
            self.dist
        )
    }
}

/// One machine node.
#[derive(Debug, Clone)]
pub struct MNode {
    /// The name test (tag or `*`).
    pub name: NameTest,
    /// The interned symbol of the tag name ([`Symbol::UNKNOWN`] for
    /// wildcard nodes, which match every symbol).
    pub sym: Symbol,
    /// Machine parent, `None` for the machine root.
    pub parent: Option<usize>,
    /// Push condition on the edge to the parent (for the root: relative
    /// to the virtual document root at level 0).
    pub edge: EdgeCond,
    /// β(v): the index of this node's `Child` slot within the parent's
    /// conditions.
    pub parent_slot: Option<usize>,
    /// Branch-match conditions; `QCond::Child` targets are *machine* node
    /// indices here.
    pub conditions: Vec<QCond>,
    /// The predicate formula over `conditions`.
    pub formula: QFormula,
    /// Conditions evaluated against attributes at the start tag:
    /// `(slot index, condition index)` pairs.
    pub start_conds: Vec<usize>,
    /// Conditions evaluated against accumulated text at the end tag.
    pub text_conds: Vec<usize>,
    /// Positional conditions `(condition index, n)` evaluated against
    /// sibling counters at the start tag.
    pub pos_conds: Vec<(usize, u32)>,
    /// Count conditions `(condition index, counter index, op, n)`
    /// evaluated against per-entry child counters at the end tag.
    pub count_conds: Vec<(usize, usize, twigm_xpath::CmpOp, u32)>,
    /// When this node's parent condition is a `CountChild`, the index of
    /// the counter to increment in parent entries (instead of setting
    /// the branch-match bit).
    pub parent_counter: Option<usize>,
    /// Whether entries of this node must accumulate element text.
    pub needs_text: bool,
    /// Eager-delivery safety: the formula is monotone (no `not(...)`),
    /// so "satisfied now" implies "satisfied at the pop" and candidates
    /// can be released the moment the formula holds.
    pub eager_safe: bool,
    /// Bit of the spine child's `Child` condition. When a candidate is
    /// delivered *through* the spine child, that subtree match is already
    /// certain, so eager evaluation assumes this bit (zero for the return
    /// node, which has no spine child).
    pub spine_mask: u64,
    /// Is this the return node?
    pub is_sol: bool,
}

impl MNode {
    /// True when the formula is trivially satisfied regardless of slots —
    /// the node has no predicate obligations of its own.
    pub fn trivially_true(&self) -> bool {
        matches!(self.formula, QFormula::True)
    }

    /// Branch-match bits decided at the element's start tag: its
    /// attribute conditions.
    #[inline]
    pub fn start_slots(&self, attrs: &[Attribute<'_>]) -> u64 {
        let mut slots = 0u64;
        for &i in &self.start_conds {
            let satisfied = match &self.conditions[i] {
                QCond::AttrExists(name) => attrs.iter().any(|a| a.name == name),
                QCond::AttrCmp(name, op, lit) => attrs
                    .iter()
                    .any(|a| a.name == name && op.eval(&a.value, lit)),
                QCond::AttrFn(name, func, arg) => attrs
                    .iter()
                    .any(|a| a.name == name && func.eval(&a.value, arg)),
                _ => unreachable!("start_conds holds only attribute conditions"),
            };
            if satisfied {
                slots |= 1 << i;
            }
        }
        slots
    }

    /// Branch-match bits decided at the element's end tag: its `text()`
    /// conditions over the accumulated direct `text`, and its `count()`
    /// conditions over the per-entry child `counts`.
    #[inline]
    pub fn end_slots(&self, text: &str, counts: &[u32]) -> u64 {
        let mut slots = 0u64;
        for &i in &self.text_conds {
            let satisfied = match &self.conditions[i] {
                QCond::TextExists => !text.is_empty(),
                // XPath comparisons over an empty node-set are false, so
                // a text test requires text to exist, even for `!=`.
                QCond::TextCmp(op, lit) => !text.is_empty() && op.eval(text, lit),
                QCond::TextFn(func, arg) => !text.is_empty() && func.eval(text, arg),
                _ => unreachable!("text_conds holds only text conditions"),
            };
            if satisfied {
                slots |= 1 << i;
            }
        }
        for &(cond, counter, op, n) in &self.count_conds {
            if op.eval_f64(counts[counter] as f64, n as f64) {
                slots |= 1 << cond;
            }
        }
        slots
    }
}

/// A compiled TwigM machine.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Machine nodes.
    pub nodes: Vec<MNode>,
    /// Index of the machine root.
    pub root: usize,
    /// Index of the return node.
    pub sol: usize,
    /// The interner this machine's name tests live in.
    table: SymbolTable,
    /// Dense dispatch: symbol index → machine nodes with that tag.
    by_sym: Vec<Vec<usize>>,
    /// Per symbol index: does any node with that tag have start-tag
    /// (attribute) conditions? Lets drivers skip attribute collection.
    attr_syms: Vec<bool>,
    /// Whether any wildcard node has start-tag conditions (then every
    /// event needs attributes).
    attr_wild: bool,
    /// Machine nodes labelled `*` (they receive every start/end event).
    wildcards: Vec<usize>,
    /// Machine nodes that need element text.
    text_nodes: Vec<usize>,
    /// Machine nodes with positional conditions.
    pos_nodes: Vec<usize>,
}

impl Machine {
    /// Compiles a parsed query (convenience for
    /// [`Machine::from_tree`]`(&QueryTree::from_path(path))`).
    pub fn from_path(path: &Path) -> Result<Machine, MachineError> {
        Self::from_tree(&QueryTree::from_path(path))
    }

    /// Compiles a lowered query tree into a machine with a private
    /// symbol table.
    pub fn from_tree(tree: &QueryTree) -> Result<Machine, MachineError> {
        let mut table = SymbolTable::new();
        let n = tree.nodes.len();
        // 1. Decide which query nodes fold away.
        let foldable: Vec<bool> = (0..n).map(|q| is_foldable(tree, q)).collect();
        // 2. Assign machine indices to kept nodes.
        let mut machine_index = vec![usize::MAX; n];
        let mut kept = Vec::new();
        for q in 0..n {
            if !foldable[q] {
                machine_index[q] = kept.len();
                kept.push(q);
            }
        }
        // 3. Resolve each query node down through folded chains to the
        //    first kept descendant (identity for kept nodes).
        let resolve_down = |mut q: QNodeId| -> QNodeId {
            while foldable[q] {
                q = tree.nodes[q].children[0];
            }
            q
        };
        // 4. Build machine nodes.
        let mut nodes = Vec::with_capacity(kept.len());
        for &q in &kept {
            let qnode = &tree.nodes[q];
            if qnode.conditions.len() > MAX_SLOTS {
                return Err(MachineError::TooManySlots {
                    node: qnode.name.to_string(),
                    count: qnode.conditions.len(),
                });
            }
            // Walk up through folded ancestors, accumulating the edge.
            let mut exact = qnode.axis == twigm_xpath::Axis::Child;
            let mut dist = 1u32;
            let mut ancestor = qnode.parent;
            while let Some(a) = ancestor {
                if !foldable[a] {
                    break;
                }
                let anode = &tree.nodes[a];
                exact &= anode.axis == twigm_xpath::Axis::Child;
                dist += 1;
                ancestor = anode.parent;
            }
            let parent = ancestor.map(|a| machine_index[a]);
            // Rewrite Child targets through folding.
            let conditions: Vec<QCond> = qnode
                .conditions
                .iter()
                .map(|c| match c {
                    QCond::Child(t) => QCond::Child(machine_index[resolve_down(*t)]),
                    QCond::CountChild(t, op, n) => {
                        QCond::CountChild(machine_index[resolve_down(*t)], *op, *n)
                    }
                    other => other.clone(),
                })
                .collect();
            let start_conds = conditions
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    matches!(
                        c,
                        QCond::AttrExists(_) | QCond::AttrCmp(..) | QCond::AttrFn(..)
                    )
                })
                .map(|(i, _)| i)
                .collect();
            let text_conds: Vec<usize> = conditions
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    matches!(
                        c,
                        QCond::TextExists | QCond::TextCmp(..) | QCond::TextFn(..)
                    )
                })
                .map(|(i, _)| i)
                .collect();
            let pos_conds: Vec<(usize, u32)> = conditions
                .iter()
                .enumerate()
                .filter_map(|(i, c)| match c {
                    QCond::Position(n) => Some((i, *n)),
                    _ => None,
                })
                .collect();
            let count_conds: Vec<(usize, usize, twigm_xpath::CmpOp, u32)> = conditions
                .iter()
                .enumerate()
                .filter(|(_, c)| matches!(c, QCond::CountChild(..)))
                .enumerate()
                .map(|(counter, (i, c))| match c {
                    QCond::CountChild(_, op, n) => (i, counter, *op, *n),
                    _ => unreachable!("filtered to CountChild"),
                })
                .collect();
            if !pos_conds.is_empty() && qnode.axis != twigm_xpath::Axis::Child {
                return Err(MachineError::PositionNeedsChildAxis {
                    node: qnode.name.to_string(),
                });
            }
            let needs_text = !text_conds.is_empty();
            let spine_mask = qnode
                .spine_child
                .map(|s| {
                    let target = machine_index[resolve_down(s)];
                    let slot = conditions
                        .iter()
                        .position(|c| matches!(c, QCond::Child(t) if *t == target))
                        .expect("spine child has a Child condition");
                    1u64 << slot
                })
                .unwrap_or(0);
            let sym = match &qnode.name {
                NameTest::Tag(t) => table.intern(t),
                NameTest::Wildcard => Symbol::UNKNOWN,
            };
            nodes.push(MNode {
                name: qnode.name.clone(),
                sym,
                parent,
                edge: EdgeCond { exact, dist },
                parent_slot: None, // filled below
                conditions,
                formula: qnode.formula.clone(),
                start_conds,
                text_conds,
                pos_conds,
                count_conds,
                parent_counter: None, // filled below
                needs_text,
                eager_safe: formula_is_monotone(&qnode.formula),
                spine_mask,
                is_sol: q == resolve_down(tree.sol),
            });
        }
        // 5. β: locate each node's Child/CountChild slot in its parent.
        for v in 0..nodes.len() {
            if let Some(p) = nodes[v].parent {
                let slot = nodes[p]
                    .conditions
                    .iter()
                    .position(|c| {
                        matches!(c, QCond::Child(t) if *t == v)
                            || matches!(c, QCond::CountChild(t, _, _) if *t == v)
                    })
                    .expect("parent must have a (Count)Child condition for each machine child");
                nodes[v].parent_slot = Some(slot);
                nodes[v].parent_counter = nodes[p]
                    .count_conds
                    .iter()
                    .find(|(cond, _, _, _)| *cond == slot)
                    .map(|(_, counter, _, _)| *counter);
            }
        }
        // 6. Dispatch tables, dense over the symbol space.
        let mut by_sym: Vec<Vec<usize>> = vec![Vec::new(); table.len()];
        let mut attr_syms = vec![false; table.len()];
        let mut attr_wild = false;
        let mut wildcards = Vec::new();
        let mut text_nodes = Vec::new();
        let mut pos_nodes = Vec::new();
        for (v, node) in nodes.iter().enumerate() {
            match node.sym.index() {
                Some(i) => {
                    by_sym[i].push(v);
                    attr_syms[i] |= !node.start_conds.is_empty();
                }
                None => {
                    wildcards.push(v);
                    attr_wild |= !node.start_conds.is_empty();
                }
            }
            if node.needs_text {
                text_nodes.push(v);
            }
            if !node.pos_conds.is_empty() {
                pos_nodes.push(v);
            }
        }
        let root = nodes
            .iter()
            .position(|n| n.parent.is_none())
            .expect("a machine always has a root");
        let sol = nodes
            .iter()
            .position(|n| n.is_sol)
            .expect("a machine always has a return node");
        Ok(Machine {
            nodes,
            root,
            sol,
            table,
            by_sym,
            attr_syms,
            attr_wild,
            wildcards,
            text_nodes,
            pos_nodes,
        })
    }

    /// The symbol table this machine's name tests were interned into.
    pub fn symbols(&self) -> &SymbolTable {
        &self.table
    }

    /// Machine nodes whose tag is exactly `sym` (wildcards excluded).
    /// Dense indexing, no hashing; foreign or unknown symbols yield the
    /// empty slice.
    #[inline]
    pub fn tag_nodes(&self, sym: Symbol) -> &[usize] {
        match sym.index() {
            Some(i) if i < self.by_sym.len() => &self.by_sym[i],
            _ => &[],
        }
    }

    /// Machine nodes labelled `*` — they receive every event, whatever
    /// its symbol.
    #[inline]
    pub fn wildcards(&self) -> &[usize] {
        &self.wildcards
    }

    /// Machine nodes that should receive events for `sym` (tag matches
    /// or the node is a wildcard). The symbol-dispatch analogue of
    /// [`Machine::nodes_for_tag`].
    #[inline]
    pub fn nodes_for_symbol(&self, sym: Symbol) -> impl Iterator<Item = usize> + '_ {
        self.tag_nodes(sym)
            .iter()
            .copied()
            .chain(self.wildcards.iter().copied())
    }

    /// Whether a start event with this symbol needs its attributes
    /// collected (some dispatched node tests them). Unknown symbols need
    /// attributes only if a wildcard node does.
    #[inline]
    pub fn needs_attributes(&self, sym: Symbol) -> bool {
        self.attr_wild
            || match sym.index() {
                Some(i) if i < self.attr_syms.len() => self.attr_syms[i],
                _ => false,
            }
    }

    /// Whether an element with this symbol can become a solution
    /// candidate: the return node is labelled `*` or with exactly this
    /// tag. An unknown symbol can only match a `*` return node.
    #[inline]
    pub fn can_be_candidate(&self, sym: Symbol) -> bool {
        let sol = self.nodes[self.sol].sym;
        sol.index().is_none() || sol == sym
    }

    /// Machine nodes that should receive events for `tag` (name matches
    /// or the node is a wildcard). String-keyed convenience: one interner
    /// lookup, then symbol dispatch.
    pub fn nodes_for_tag<'a>(&'a self, tag: &str) -> impl Iterator<Item = usize> + 'a {
        self.nodes_for_symbol(self.table.lookup(tag))
    }

    /// Machine nodes whose entries accumulate element text.
    pub fn text_nodes(&self) -> &[usize] {
        &self.text_nodes
    }

    /// Machine nodes with positional (`[n]`) conditions.
    pub fn pos_nodes(&self) -> &[usize] {
        &self.pos_nodes
    }

    /// Number of machine nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the machine has no nodes (never the case for valid
    /// queries; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Renders the machine in Graphviz dot form — the visual of the
    /// paper's figures 2–4 (nodes with their name, sol marker, condition
    /// count; edges labelled with the push condition).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph twigm {\n  rankdir=TB;\n  node [shape=box];\n");
        for (v, node) in self.nodes.iter().enumerate() {
            let shape = if node.is_sol { ", peripheries=2" } else { "" };
            let conds = node
                .conditions
                .iter()
                .map(|c| match c {
                    QCond::Child(_) => "child".to_string(),
                    QCond::AttrExists(a) => format!("@{a}"),
                    QCond::AttrCmp(a, op, lit) => format!("@{a} {op} {lit}"),
                    QCond::TextExists => "text()".to_string(),
                    QCond::TextCmp(op, lit) => format!("text() {op} {lit}"),
                    QCond::AttrFn(a, func, arg) => format!("{func}(@{a}, '{arg}')"),
                    QCond::TextFn(func, arg) => format!("{func}(text(), '{arg}')"),
                    QCond::Position(n) => format!("[{n}]"),
                    QCond::CountChild(_, op, n) => format!("count {op} {n}"),
                })
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "  n{v} [label=\"{}\\n[{}]\"{shape}];",
                node.name, conds
            );
            match node.parent {
                Some(p) => {
                    let _ = writeln!(out, "  n{p} -> n{v} [label=\"{}\"];", node.edge);
                }
                None => {
                    let _ = writeln!(out, "  doc [shape=point];");
                    let _ = writeln!(out, "  doc -> n{v} [label=\"{}\"];", node.edge);
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// A formula is monotone when it contains no negation: its value can
/// only flip from false to true as slots are set, which is what makes
/// eager candidate delivery sound.
fn formula_is_monotone(f: &QFormula) -> bool {
    match f {
        QFormula::True | QFormula::Slot(_) => true,
        QFormula::Not(_) => false,
        QFormula::And(a, b) | QFormula::Or(a, b) => {
            formula_is_monotone(a) && formula_is_monotone(b)
        }
    }
}

/// A query node folds away iff it is an interior `*` node: wildcard name,
/// exactly one child, no obligations besides requiring that child, and it
/// is not the return node.
fn is_foldable(tree: &QueryTree, q: QNodeId) -> bool {
    let node = &tree.nodes[q];
    q != tree.sol
        && node.name == NameTest::Wildcard
        && node.children.len() == 1
        && node.conditions.len() == 1
        && matches!(node.conditions[0], QCond::Child(_))
        && node.formula == QFormula::Slot(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_xpath::parse;

    fn machine(q: &str) -> Machine {
        Machine::from_path(&parse(q).unwrap()).unwrap()
    }

    /// The (single) machine node carrying tag `t`.
    fn tag_node(m: &Machine, t: &str) -> usize {
        m.tag_nodes(m.symbols().lookup(t))[0]
    }

    #[test]
    fn paper_m2_structure() {
        // //a//b//c (figure 2): three nodes, all edges (>=, 1).
        let m = machine("//a//b//c");
        assert_eq!(m.len(), 3);
        for node in &m.nodes {
            assert_eq!(
                node.edge,
                EdgeCond {
                    exact: false,
                    dist: 1
                }
            );
        }
        assert_eq!(m.nodes[m.root].name, NameTest::Tag("a".into()));
        assert!(m.nodes[m.sol].is_sol);
        assert_eq!(m.nodes[m.sol].name, NameTest::Tag("c".into()));
    }

    #[test]
    fn child_axis_edges_are_exact() {
        let m = machine("/a/b");
        assert_eq!(
            m.nodes[m.root].edge,
            EdgeCond {
                exact: true,
                dist: 1
            }
        );
        let b = tag_node(&m, "b");
        assert_eq!(
            m.nodes[b].edge,
            EdgeCond {
                exact: true,
                dist: 1
            }
        );
    }

    #[test]
    fn interior_wildcards_fold_into_edge_labels() {
        // /a/*/b: machine has two nodes; b's edge is (=, 2).
        let m = machine("/a/*/b");
        assert_eq!(m.len(), 2);
        let b = tag_node(&m, "b");
        assert_eq!(
            m.nodes[b].edge,
            EdgeCond {
                exact: true,
                dist: 2
            }
        );
    }

    #[test]
    fn descendant_anywhere_in_folded_chain_gives_geq() {
        for q in ["//a/*//b", "//a//*/b", "//a//*//b"] {
            let m = machine(q);
            assert_eq!(m.len(), 2, "{q}");
            let b = tag_node(&m, "b");
            assert_eq!(
                m.nodes[b].edge,
                EdgeCond {
                    exact: false,
                    dist: 2
                },
                "{q}"
            );
        }
    }

    #[test]
    fn multiple_folded_wildcards_accumulate_distance() {
        let m = machine("/a/*/*/*/b");
        assert_eq!(m.len(), 2);
        let b = tag_node(&m, "b");
        assert_eq!(
            m.nodes[b].edge,
            EdgeCond {
                exact: true,
                dist: 4
            }
        );
    }

    #[test]
    fn folded_root_wildcard_shifts_the_root_edge() {
        // /*/a: machine root is `a` with edge (=, 2) to the document.
        let m = machine("/*/a");
        assert_eq!(m.len(), 1);
        assert_eq!(m.nodes[m.root].name, NameTest::Tag("a".into()));
        assert_eq!(
            m.nodes[m.root].edge,
            EdgeCond {
                exact: true,
                dist: 2
            }
        );
    }

    #[test]
    fn wildcard_sol_keeps_its_node() {
        let m = machine("//a/*");
        assert_eq!(m.len(), 2);
        assert_eq!(m.nodes[m.sol].name, NameTest::Wildcard);
        assert_eq!(m.wildcards, vec![m.sol]);
    }

    #[test]
    fn wildcard_with_predicate_keeps_its_node() {
        let m = machine("//*[b]/c");
        assert_eq!(m.len(), 3);
        assert_eq!(m.nodes[m.root].name, NameTest::Wildcard);
    }

    #[test]
    fn wildcard_predicate_leaf_keeps_its_node() {
        let m = machine("//a[*]");
        assert_eq!(m.len(), 2);
        assert_eq!(m.wildcards.len(), 1);
    }

    #[test]
    fn wildcards_fold_inside_predicates() {
        // [*/d]: the interior `*` folds; d hangs off `a` at distance 2.
        let m = machine("//a[*/d]");
        assert_eq!(m.len(), 2);
        let d = tag_node(&m, "d");
        assert_eq!(
            m.nodes[d].edge,
            EdgeCond {
                exact: true,
                dist: 2
            }
        );
        // a's single predicate slot now points at d's machine node.
        assert!(matches!(m.nodes[m.root].conditions[0], QCond::Child(t) if t == d));
        assert_eq!(m.nodes[d].parent_slot, Some(0));
    }

    #[test]
    fn beta_slots_match_parents_condition_order() {
        // Figure 4: a's conditions are [d, b]; d gets slot 0, b slot 1.
        let m = machine("//a[d]//b[e]//c");
        assert_eq!(m.len(), 5);
        let d = tag_node(&m, "d");
        let b = tag_node(&m, "b");
        let e = tag_node(&m, "e");
        let c = tag_node(&m, "c");
        assert_eq!(m.nodes[d].parent_slot, Some(0));
        assert_eq!(m.nodes[b].parent_slot, Some(1));
        assert_eq!(m.nodes[e].parent_slot, Some(0));
        assert_eq!(m.nodes[c].parent_slot, Some(1));
        // Predicate edges are exact ((=, 1)); spine edges are (≥, 1).
        assert_eq!(
            m.nodes[d].edge,
            EdgeCond {
                exact: true,
                dist: 1
            }
        );
        assert_eq!(
            m.nodes[b].edge,
            EdgeCond {
                exact: false,
                dist: 1
            }
        );
    }

    #[test]
    fn dispatch_covers_duplicate_tags() {
        let m = machine("//a//a/b");
        let for_a: Vec<usize> = m.nodes_for_tag("a").collect();
        assert_eq!(for_a.len(), 2);
        let for_z: Vec<usize> = m.nodes_for_tag("z").collect();
        assert!(for_z.is_empty());
    }

    #[test]
    fn wildcard_nodes_receive_every_tag() {
        let m = machine("//a/*");
        let for_x: Vec<usize> = m.nodes_for_tag("x").collect();
        assert_eq!(for_x, vec![m.sol]);
        let for_a: Vec<usize> = m.nodes_for_tag("a").collect();
        assert_eq!(for_a.len(), 2);
    }

    #[test]
    fn start_and_text_conditions_are_partitioned() {
        let m = machine("//a[@id][text() = 'x'][b]/c");
        let a = &m.nodes[m.root];
        // Conditions: @id, text, child b, spine c.
        assert_eq!(a.conditions.len(), 4);
        assert_eq!(a.start_conds, vec![0]);
        assert_eq!(a.text_conds, vec![1]);
        assert!(a.needs_text);
        assert_eq!(m.text_nodes(), &[m.root]);
    }

    #[test]
    fn edge_cond_tests() {
        let exact = EdgeCond {
            exact: true,
            dist: 2,
        };
        assert!(exact.test(2));
        assert!(!exact.test(3));
        assert!(!exact.test(1));
        let geq = EdgeCond {
            exact: false,
            dist: 2,
        };
        assert!(geq.test(2));
        assert!(geq.test(9));
        assert!(!geq.test(1));
        assert_eq!(exact.to_string(), "(=, 2)");
    }

    #[test]
    fn display_of_errors() {
        let e = MachineError::TooManySlots {
            node: "a".into(),
            count: 99,
        };
        assert!(e.to_string().contains("99"));
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    fn dot_output_covers_all_nodes_and_edges() {
        let m = Machine::from_path(&parse("//a[d]//b[@x >= 1]//c").unwrap()).unwrap();
        let dot = m.to_dot();
        assert!(dot.starts_with("digraph twigm {"));
        assert!(dot.contains("doc ->"));
        assert!(dot.contains("peripheries=2")); // sol marked
        assert!(dot.contains("@x >= 1"));
        // One node line per machine node.
        assert_eq!(dot.matches("\\n[").count(), m.len());
    }
}
