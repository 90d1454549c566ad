//! Grammar-driven random query generation for `XP{/,//,*,[]}`.
//!
//! Queries are built directly as [`Path`] ASTs — covering every axis,
//! wildcards, nested predicates, attribute and text value tests, string
//! functions, `count()`, `not()`, conjunction/disjunction and positional
//! predicates — while honoring the parser's documented restrictions
//! (positional predicates lead a child-axis step, `count()` takes one
//! location step, predicate paths are relative). The runner additionally
//! round-trips each query through `Display` → [`twigm_xpath::parse`],
//! which fuzzes the parser and pretty-printer against each other for
//! free.

use twigm_datagen::SplitMix64;
use twigm_xpath::{Axis, CmpOp, Literal, NameTest, Path, PredExpr, Step, StrFunc, Value};

use crate::xmlgen::{ATTRS, TAGS};

/// Shape parameters for query generation.
#[derive(Debug, Clone)]
pub struct QueryConfig {
    /// Maximum number of top-level location steps.
    pub max_steps: usize,
    /// Maximum predicate-nesting depth (predicates inside predicate
    /// paths).
    pub max_pred_depth: u32,
    /// Maximum predicates per step.
    pub max_preds: usize,
    /// Probability of `*` instead of a concrete tag.
    pub wildcard_prob: f64,
    /// Probability of `//` instead of `/` per step.
    pub descendant_prob: f64,
    /// Probability of a *rooted child path*: every top-level step takes
    /// the child axis, so the query anchors at the document root and the
    /// reader's projection can skim the subtrees off its path.
    pub rooted_prob: f64,
    /// How many of [`TAGS`] name tests draw from (should match the
    /// document generator's alphabet so queries actually hit).
    pub tag_alphabet: usize,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            max_steps: 4,
            max_pred_depth: 2,
            max_preds: 2,
            wildcard_prob: 0.15,
            descendant_prob: 0.5,
            rooted_prob: 0.25,
            tag_alphabet: 4,
        }
    }
}

/// Generates one query from the seed stream.
pub fn generate_query(rng: &mut SplitMix64, cfg: &QueryConfig) -> Path {
    let rooted = rng.gen_bool(cfg.rooted_prob);
    let count = rng.range_usize(1, cfg.max_steps.max(1));
    let mut steps = Vec::with_capacity(count);
    for _ in 0..count {
        let mut step = gen_step(rng, cfg, cfg.max_pred_depth, true);
        if rooted {
            step.axis = Axis::Child;
        }
        steps.push(step);
    }
    // A trailing `/@attr` selector, occasionally — only after a
    // child-axis hop per the grammar (`//a/@id`, never `//a//@id`).
    let attr = if rng.gen_bool(0.08) {
        Some(ATTRS[rng.index(ATTRS.len())].to_string())
    } else {
        None
    };
    Path { steps, attr }
}

fn gen_name_test(rng: &mut SplitMix64, cfg: &QueryConfig) -> NameTest {
    if rng.gen_bool(cfg.wildcard_prob) {
        NameTest::Wildcard
    } else {
        NameTest::Tag(TAGS[rng.index(cfg.tag_alphabet.clamp(1, TAGS.len()))].to_string())
    }
}

/// One location step. `allow_position` gates `[n]` predicates (they are
/// only generated leading a child-axis step, matching the machines'
/// sibling-counter support).
fn gen_step(rng: &mut SplitMix64, cfg: &QueryConfig, depth: u32, allow_position: bool) -> Step {
    let axis = if rng.gen_bool(cfg.descendant_prob) {
        Axis::Descendant
    } else {
        Axis::Child
    };
    let test = gen_name_test(rng, cfg);
    let mut predicates = Vec::new();
    if allow_position && axis == Axis::Child && rng.gen_bool(0.06) {
        // `[n]` must be the step's first predicate.
        predicates.push(PredExpr::Position(rng.range_usize(1, 3) as u32));
        if rng.gen_bool(0.4) {
            predicates.push(gen_pred(rng, cfg, depth));
        }
    } else if depth > 0 {
        for _ in 0..rng.range_usize(0, cfg.max_preds) {
            predicates.push(gen_pred(rng, cfg, depth));
        }
    }
    Step {
        axis,
        test,
        predicates,
    }
}

fn gen_pred(rng: &mut SplitMix64, cfg: &QueryConfig, depth: u32) -> PredExpr {
    // Composites get rarer with depth so expressions stay small.
    if depth > 0 && rng.gen_bool(0.25) {
        let inner_depth = depth - 1;
        return match rng.index(3) {
            0 => PredExpr::Not(Box::new(gen_pred(rng, cfg, inner_depth))),
            1 => PredExpr::And(
                Box::new(gen_pred(rng, cfg, inner_depth)),
                Box::new(gen_pred(rng, cfg, inner_depth)),
            ),
            _ => PredExpr::Or(
                Box::new(gen_pred(rng, cfg, inner_depth)),
                Box::new(gen_pred(rng, cfg, inner_depth)),
            ),
        };
    }
    match rng.index(5) {
        0 => PredExpr::Exists(gen_value(rng, cfg, depth)),
        1 => {
            let value = gen_value(rng, cfg, depth);
            let op = gen_op(rng);
            let literal = if rng.gen_bool(0.5) {
                Literal::Number(rng.range_usize(0, 9) as f64)
            } else {
                Literal::String(gen_word(rng))
            };
            PredExpr::Compare(value, op, literal)
        }
        2 => {
            let func = match rng.index(3) {
                0 => StrFunc::Contains,
                1 => StrFunc::StartsWith,
                _ => StrFunc::EndsWith,
            };
            PredExpr::StrFn(func, gen_value(rng, cfg, depth), gen_word(rng))
        }
        3 => {
            // `count()` supports exactly one location step.
            let step = gen_step(rng, cfg, 0, false);
            PredExpr::CountCmp(
                Value::path(vec![step]),
                gen_op(rng),
                rng.range_usize(0, 3) as u32,
            )
        }
        _ => PredExpr::Exists(gen_value(rng, cfg, depth)),
    }
}

/// A relative predicate path, optionally ending in `@attr` or `text()`.
fn gen_value(rng: &mut SplitMix64, cfg: &QueryConfig, depth: u32) -> Value {
    let count = rng.range_usize(0, 2);
    let mut steps = Vec::with_capacity(count);
    for _ in 0..count {
        let inner_depth = depth.saturating_sub(1);
        steps.push(gen_step(rng, cfg, inner_depth, false));
    }
    let terminal = rng.index(4);
    let attr = if terminal == 0 {
        Some(ATTRS[rng.index(ATTRS.len())].to_string())
    } else {
        None
    };
    let text = terminal == 1;
    if steps.is_empty() && attr.is_none() && !text {
        // An empty value is unparseable; fall back to a one-step path.
        return Value::path(vec![gen_step(rng, cfg, 0, false)]);
    }
    Value { steps, attr, text }
}

fn gen_op(rng: &mut SplitMix64) -> CmpOp {
    match rng.index(6) {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

/// A short literal from the same lexical pool the document generator's
/// text runs use, so comparisons sometimes succeed.
fn gen_word(rng: &mut SplitMix64) -> String {
    const POOL: &[u8] = b"abcdefgh0123456789";
    let len = rng.range_usize(1, 3);
    (0..len)
        .map(|_| POOL[rng.index(POOL.len())] as char)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    fn generated_queries_roundtrip_through_the_parser() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let cfg = QueryConfig::default();
        for _ in 0..500 {
            let query = generate_query(&mut rng, &cfg);
            let text = query.to_string();
            let reparsed = parse(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
            assert_eq!(reparsed, query, "display/parse mismatch for {text}");
        }
    }

    #[test]
    fn generator_covers_every_language_feature() {
        let mut rng = SplitMix64::seed_from_u64(12);
        let cfg = QueryConfig::default();
        let (mut desc, mut wild, mut preds, mut pos, mut cnt, mut strf, mut neg) =
            (false, false, false, false, false, false, false);
        for _ in 0..2000 {
            let q = generate_query(&mut rng, &cfg);
            let text = q.to_string();
            desc |= text.contains("//");
            wild |= text.contains('*');
            preds |= text.contains('[');
            pos |= q
                .steps
                .iter()
                .any(|s| matches!(s.predicates.first(), Some(PredExpr::Position(_))));
            cnt |= text.contains("count(");
            strf |= text.contains("contains(") || text.contains("-with(");
            neg |= text.contains("not(");
        }
        assert!(
            desc && wild && preds && pos && cnt && strf && neg,
            "coverage gap: desc={desc} wild={wild} preds={preds} pos={pos} \
             count={cnt} strfn={strf} not={neg}"
        );
    }

    #[test]
    fn rooted_child_paths_are_generated() {
        let mut rng = SplitMix64::seed_from_u64(13);
        let cfg = QueryConfig::default();
        let rooted = (0..400)
            .filter(|_| {
                let q = generate_query(&mut rng, &cfg);
                q.steps.iter().all(|s| s.axis == Axis::Child)
            })
            .count();
        // A quarter are rooted by construction, and some others by luck.
        assert!((100..250).contains(&rooted), "{rooted} of 400 rooted");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = QueryConfig::default();
        let a = generate_query(&mut SplitMix64::seed_from_u64(5), &cfg);
        let b = generate_query(&mut SplitMix64::seed_from_u64(5), &cfg);
        assert_eq!(a, b);
    }
}
