//! Compile-time relevance analyses: the symbol prefilter of the batch
//! pipeline, and the path projection every driver hands the reader.
//!
//! # Symbol relevance
//!
//! A compiled [`Machine`] names exactly the tags that can advance it: a
//! start tag whose symbol is no machine node's symbol dispatches to
//! nothing (the dense `by_sym` list is empty) and only costs the
//! per-event bookkeeping. The batch producer can therefore drop such
//! elements — and their text — before they ever cross the channel,
//! provided nothing about the machine depends on *seeing* irrelevant
//! events:
//!
//! * **wildcard nodes** receive every start/end event, so any wildcard
//!   disables element skipping entirely;
//! * **positional predicates** (`[n]`) reset and bump sibling counters
//!   on every start event regardless of symbol, so any positional node
//!   also disables skipping;
//! * **text predicates** require character data, but only for elements
//!   that are themselves query nodes (text is routed by matching the
//!   containing element's level against a text-needing node's stack
//!   top) — so text delivery is needed iff the machine has text nodes,
//!   independent of element skipping.
//!
//! Everything else is level-deterministic: edge conditions compare the
//! *document* levels carried in the events, which skipping does not
//! change, and child counters (`count(...)` predicates) are incremented
//! by dispatched child nodes, which are by definition relevant.
//!
//! # Path projection
//!
//! [`machine_projection`] compiles the machine's anchored steps — the
//! nodes reached from the document root by child edges only (folded `*`
//! steps included) — into a [`Projection`], which annotates the open
//! path with "can a query node still match below here". Every machine
//! node is pushed only when its parent has an entry at the edge's level
//! distance, so below an element where no anchored step is pending and
//! no `//` edge is armed, no node is ever pushed: no push, pop, upload,
//! candidate or result can come from that content. What the content
//! could still feed is
//!
//! * the element's own text, when a text-testing node matches the
//!   element itself: such a step keeps the content live;
//! * sibling counters of positional predicates: each element resets
//!   the counters of its children when it starts, so counters below a
//!   skimmed element are never read before their owner resets them.

use twigm_sax::projection::{StepFlags, StepRef};
use twigm_sax::Projection;
use twigm_xpath::NameTest;

use crate::machine::Machine;

/// Which parts of the event stream an engine actually dispatches on.
///
/// The conservative default ([`Relevance::all`]) delivers everything and
/// is always correct; analyses refine it.
#[derive(Debug, Clone)]
pub struct Relevance {
    /// `Some(rel)`: only elements whose symbol index is set can affect
    /// the engine (the producer still delivers `level <= 1` events so
    /// per-document cleanup fires). `None`: every element matters.
    pub symbols: Option<Vec<bool>>,
    /// Whether any query node examines character data.
    pub wants_text: bool,
}

impl Relevance {
    /// Everything is relevant — the safe default.
    pub fn all() -> Relevance {
        Relevance {
            symbols: None,
            wants_text: true,
        }
    }
}

/// Derives the relevance of a single compiled machine over its own
/// symbol table.
pub fn machine_relevance(machine: &Machine) -> Relevance {
    let wants_text = !machine.text_nodes().is_empty();
    if !machine.wildcards().is_empty() || !machine.pos_nodes().is_empty() {
        return Relevance {
            symbols: None,
            wants_text,
        };
    }
    let mut symbols = vec![false; machine.symbols().len()];
    for node in &machine.nodes {
        if let Some(i) = node.sym.index() {
            symbols[i] = true;
        }
    }
    Relevance {
        symbols: Some(symbols),
        wants_text,
    }
}

/// Unions `other` into `acc` (both over the *same* symbol table): an
/// element relevant to any machine must be delivered, text wanted by any
/// machine must be delivered.
pub fn union_into(acc: &mut Relevance, other: &Relevance) {
    acc.wants_text |= other.wants_text;
    match (&mut acc.symbols, &other.symbols) {
        (_, None) => acc.symbols = None,
        (None, _) => {}
        (Some(a), Some(b)) => {
            if a.len() < b.len() {
                a.resize(b.len(), false);
            }
            for (i, &flag) in b.iter().enumerate() {
                a[i] |= flag;
            }
        }
    }
}

/// Compiles the path projection of one machine over its own symbol
/// table (see the module docs). `None` — deliver every event — when the
/// root step is `//`, or the machine has more anchored steps than a
/// projection holds.
pub fn machine_projection(machine: &Machine) -> Option<Projection> {
    if !machine.nodes[machine.root].edge.exact {
        return None;
    }
    let mut children = vec![Vec::new(); machine.len()];
    for (v, node) in machine.nodes.iter().enumerate() {
        if let Some(p) = node.parent {
            children[p].push(v);
        }
    }
    let mut projection = Projection::new();
    // Parents before children: (node, parent step, parent level).
    let mut todo = vec![(machine.root, StepRef::ROOT, 0u32)];
    while let Some((v, parent, parent_level)) = todo.pop() {
        let node = &machine.nodes[v];
        let level = parent_level + node.edge.dist;
        let flags = StepFlags {
            arms: children[v].iter().any(|&c| !machine.nodes[c].edge.exact),
            keeps_text: node.needs_text,
            returns: node.is_sol,
        };
        let test = match node.name {
            NameTest::Tag(_) => Some(node.sym),
            NameTest::Wildcard => None,
        };
        let step = projection.add_step(parent, level, test, flags)?;
        for &c in &children[v] {
            if machine.nodes[c].edge.exact {
                todo.push((c, step, level));
            }
        }
    }
    Some(projection)
}

/// The union of several engines' projections over one symbol table:
/// `None` when any part is `None` or the union outgrows a projection.
pub fn union_projection(parts: impl IntoIterator<Item = Option<Projection>>) -> Option<Projection> {
    parts
        .into_iter()
        .try_fold(Projection::new(), |union, part| union.union(&part?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_xpath::parse;

    fn relevance_of(query: &str) -> (Machine, Relevance) {
        let machine = Machine::from_path(&parse(query).unwrap()).unwrap();
        let rel = machine_relevance(&machine);
        (machine, rel)
    }

    #[test]
    fn plain_query_marks_exactly_its_node_symbols() {
        let (machine, rel) = relevance_of("//a[d]//b[e]//c");
        let symbols = rel.symbols.expect("no wildcards, no positions");
        assert!(!rel.wants_text);
        for name in ["a", "b", "c", "d", "e"] {
            let sym = machine.symbols().lookup(name);
            assert!(symbols[sym.index().unwrap()], "{name} should be relevant");
        }
        assert_eq!(symbols.iter().filter(|&&f| f).count(), 5);
    }

    #[test]
    fn wildcards_disable_skipping() {
        // A wildcard that keeps its machine node (here: the return node)
        // receives every event.
        let (_, rel) = relevance_of("//a/*");
        assert!(rel.symbols.is_none());
        let (_, rel) = relevance_of("//*[b]/c");
        assert!(rel.symbols.is_none());
    }

    #[test]
    fn folded_interior_wildcards_keep_skipping() {
        // Interior `*` nodes fold into edge distance labels (machine.rs):
        // the wildcard element itself is never dispatched, and the edge
        // tests use the document levels carried in the events — which
        // skipping preserves. So `//a/*/c` still prefilters on {a, c}.
        let (machine, rel) = relevance_of("//a/*/c");
        assert!(machine.wildcards().is_empty());
        let symbols = rel.symbols.expect("no wildcard machine nodes");
        assert_eq!(symbols.iter().filter(|&&f| f).count(), 2);
    }

    #[test]
    fn positional_predicates_disable_skipping() {
        let (_, rel) = relevance_of("/a/b[2]");
        assert!(rel.symbols.is_none());
    }

    #[test]
    fn text_predicates_request_text() {
        let (_, rel) = relevance_of("//a[b = 'x']/c");
        assert!(rel.wants_text);
        assert!(rel.symbols.is_some());
    }

    fn projection_of(query: &str) -> Option<(Machine, Projection)> {
        let machine = Machine::from_path(&parse(query).unwrap()).unwrap();
        let projection = machine_projection(&machine)?;
        Some((machine, projection))
    }

    /// Which elements of `xml` a driver delivers under `query`'s
    /// projection, as `name@level`.
    fn delivered(query: &str, xml: &str) -> Vec<String> {
        let (machine, projection) = projection_of(query).expect("a projection");
        let mut reader =
            twigm_sax::SaxReader::from_bytes(xml.as_bytes()).with_projection(Some(projection));
        let mut out = Vec::new();
        while let Some(event) = reader.next_event().unwrap() {
            if let twigm_sax::Event::Start(tag) = event {
                out.push(format!("{}@{}", tag.name(), tag.level()));
                let sym = machine.symbols().lookup(tag.name());
                reader.project(sym);
            }
        }
        out
    }

    #[test]
    fn descendant_roots_compile_to_no_projection() {
        assert!(projection_of("//a/b").is_none());
        assert!(projection_of("//a[b]").is_none());
        assert!(projection_of("/a/b").is_some());
        assert!(projection_of("/a//b").is_some());
    }

    #[test]
    fn child_paths_skim_everything_off_the_path() {
        let xml = "<r><a><b><x/></b><c><b/></c></a><d><a/></d></r>";
        assert_eq!(
            delivered("/r/a/b", xml),
            ["r@1", "a@2", "b@3", "c@3", "d@2"]
        );
        // A `//` edge arms: all of `a` stays live.
        assert_eq!(
            delivered("/r/a//b", xml),
            ["r@1", "a@2", "b@3", "x@4", "c@3", "b@4", "d@2"]
        );
        // Folded `*` steps keep their level.
        assert_eq!(
            delivered("/r/*/b", xml),
            ["r@1", "a@2", "b@3", "c@3", "d@2", "a@3"]
        );
        // Predicate children are anchored steps too.
        assert_eq!(
            delivered("/r/a[c/b]/b", xml),
            ["r@1", "a@2", "b@3", "c@3", "b@4", "d@2"]
        );
    }

    #[test]
    fn text_tests_keep_their_own_text() {
        let (machine, projection) = projection_of("/r/a[text() = 'x']").unwrap();
        let mut reader = twigm_sax::SaxReader::from_bytes(&b"<r><a>x<b>y</b></a></r>"[..])
            .with_projection(Some(projection));
        let mut texts = Vec::new();
        while let Some(event) = reader.next_event().unwrap() {
            match event {
                twigm_sax::Event::Start(tag) => {
                    let sym = machine.symbols().lookup(tag.name());
                    reader.project(sym);
                }
                twigm_sax::Event::Text(t) => texts.push(t.into_owned()),
                _ => {}
            }
        }
        // `a`'s own text is delivered; `b`'s content is skimmed.
        assert_eq!(texts, ["x"]);
        assert_eq!(reader.events_skipped(), 1);
    }

    #[test]
    fn union_widens() {
        let (_, mut a) = relevance_of("//a/b");
        let (_, b) = relevance_of("//a/*");
        assert!(a.symbols.is_some());
        union_into(&mut a, &b);
        assert!(a.symbols.is_none());
        assert!(!a.wants_text);
        let (_, text) = relevance_of("//a[b = 'x']");
        union_into(&mut a, &text);
        assert!(a.wants_text);
    }
}
