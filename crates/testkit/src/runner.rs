//! The deterministic fuzz loop: seed → (document, query) cases → the
//! full check battery → shrunk failures + a reproducibility fingerprint.

use twigm::engine::{run_engine, StreamEngine};
use twigm::TwigM;
use twigm_baselines::inmem::Document;
use twigm_datagen::SplitMix64;
use twigm_xpath::{parse, Path};

use crate::check::{check_case, check_verdict, oracle_ids, Violation, ViolationKind};
use crate::corpus::Case;
use crate::metamorphic::rewrites;
use crate::querygen::{generate_query, QueryConfig};
use crate::resplit::{run_engine_chunked, split_points, STRATEGIES};
use crate::shrink::{shrink, FailingCase};
use crate::xmlgen::{generate_doc, malform, DocConfig, Malformation, MALFORMATIONS};

/// One case in this many is also broken by a seeded malformation and
/// run through [`check_verdict`].
pub const MALFORMED_EVERY: usize = 4;

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; equal seeds give bit-for-bit equal reports.
    pub seed: u64,
    /// Number of (document, query) cases to run.
    pub cases: usize,
    /// Document-shape parameters.
    pub doc: DocConfig,
    /// Query-shape parameters.
    pub query: QueryConfig,
    /// Shrink failures before reporting them.
    pub shrink: bool,
    /// Battery-evaluation budget per shrink.
    pub shrink_budget: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xC0FFEE,
            cases: 1000,
            doc: DocConfig::default(),
            query: QueryConfig::default(),
            shrink: true,
            shrink_budget: 400,
        }
    }
}

/// One failing case with its context.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Index of the case in the run (0-based).
    pub index: usize,
    /// The case's derived sub-seed (replays the exact case).
    pub case_seed: u64,
    /// Violations found, in detection order.
    pub violations: Vec<Violation>,
    /// The minimized reproduction, when shrinking was enabled.
    pub shrunk: Option<FailingCase>,
}

/// The outcome of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Individual checks executed (engine runs, resplits, rewrites).
    pub checks: u64,
    /// Failing cases.
    pub failures: Vec<CaseReport>,
    /// Order-sensitive digest of every case seed, query and oracle
    /// result. Two runs with the same seed and configuration must
    /// produce the same fingerprint — the reproducibility contract.
    pub fingerprint: u64,
}

/// FNV-1a, the fingerprint accumulator.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// The full deterministic check battery for one (document, query) pair:
/// differential + Theorem 4.4, chunk-resplit equivalence, and every
/// metamorphic rewrite (each itself differentially checked). Returns
/// the violations and the number of checks performed.
pub fn case_violations(xml: &[u8], query: &Path) -> Vec<Violation> {
    battery(xml, query).0
}

fn battery(xml: &[u8], query: &Path) -> (Vec<Violation>, u64) {
    let mut checks = 0u64;
    let doc = match Document::parse_bytes(xml) {
        Ok(doc) => doc,
        Err(e) => {
            return (
                vec![Violation {
                    kind: ViolationKind::Parse,
                    engine: "oracle",
                    query: query.to_string(),
                    detail: format!("document unparseable: {e}"),
                }],
                1,
            );
        }
    };

    // 1. Differential + bound accounting on the base query.
    let mut out = check_case(&doc, xml, query);
    checks += 1;
    if out.iter().any(|v| v.kind == ViolationKind::Parse) {
        return (out, checks);
    }

    // 2. Chunk-resplit equivalence: identical results AND identical
    // Theorem 4.4 peak accounting under every split strategy.
    if let Ok(reference) = TwigM::new(query) {
        if let Ok((whole_ids, engine)) = run_engine(reference, xml) {
            let whole_peak = engine.stats().peak_entries;
            for strategy in STRATEGIES {
                checks += 1;
                let cuts = split_points(xml, strategy);
                let fresh = match TwigM::new(query) {
                    Ok(e) => e,
                    Err(_) => break,
                };
                match run_engine_chunked(fresh, xml, &cuts) {
                    Ok((ids, engine)) => {
                        if ids != whole_ids {
                            out.push(Violation {
                                kind: ViolationKind::Resplit,
                                engine: "TwigM",
                                query: query.to_string(),
                                detail: format!(
                                    "{strategy:?}: chunked ids {:?} != whole ids {:?}",
                                    ids.len(),
                                    whole_ids.len()
                                ),
                            });
                        } else if engine.stats().peak_entries != whole_peak {
                            out.push(Violation {
                                kind: ViolationKind::Resplit,
                                engine: "TwigM",
                                query: query.to_string(),
                                detail: format!(
                                    "{strategy:?}: chunked peak {} != whole peak {whole_peak}",
                                    engine.stats().peak_entries
                                ),
                            });
                        }
                    }
                    Err(e) => out.push(Violation {
                        kind: ViolationKind::Resplit,
                        engine: "TwigM",
                        query: query.to_string(),
                        detail: format!("{strategy:?}: chunked parse failed: {e}"),
                    }),
                }
            }
        }
    }

    // 3. Metamorphic rewrites: relation vs the base on the oracle, plus
    // a TwigM-vs-oracle differential on each derived query. (The base
    // query already exercised every engine in step 1; re-running the
    // full engine roster per rewrite would multiply the battery cost
    // ~20x without adding coverage the fuzz loop doesn't already get
    // from other cases.)
    let base_ids = oracle_ids(&doc, query);
    for rw in rewrites(query) {
        checks += 1;
        let derived_ids = oracle_ids(&doc, &rw.query);
        if !rw.relation.holds(&base_ids, &derived_ids) {
            out.push(Violation {
                kind: ViolationKind::Metamorphic,
                engine: "oracle",
                query: query.to_string(),
                detail: format!(
                    "{} expected {:?}: base {base_ids:?}, derived `{}` {derived_ids:?}",
                    rw.rule, rw.relation, rw.query
                ),
            });
        }
        let derived_run = TwigM::new(&rw.query)
            .map_err(|e| e.to_string())
            .and_then(|e| run_engine(e, xml).map_err(|e| e.to_string()));
        match derived_run {
            Ok((ids, _)) => {
                let ids = crate::check::sorted(ids);
                if ids != derived_ids {
                    out.push(Violation {
                        kind: ViolationKind::Metamorphic,
                        engine: "TwigM",
                        query: query.to_string(),
                        detail: format!(
                            "derived `{}` ({}): expected {derived_ids:?}, got {ids:?}",
                            rw.query, rw.rule
                        ),
                    });
                }
            }
            Err(e) => out.push(Violation {
                kind: ViolationKind::Metamorphic,
                engine: "TwigM",
                query: query.to_string(),
                detail: format!("derived `{}` ({}) failed to run: {e}", rw.query, rw.rule),
            }),
        }
    }

    (out, checks)
}

/// Runs one case from its sub-seed. Returns the generated artifacts,
/// violations and check count.
pub fn run_case(
    case_seed: u64,
    doc_cfg: &DocConfig,
    query_cfg: &QueryConfig,
) -> (Vec<u8>, Path, Vec<Violation>, u64) {
    let mut rng = SplitMix64::seed_from_u64(case_seed);
    let xml = generate_doc(&mut rng, doc_cfg);
    let query = generate_query(&mut rng, query_cfg);

    // Display → parse roundtrip is itself a parser/printer fuzz check.
    let text = query.to_string();
    match parse(&text) {
        Ok(reparsed) if reparsed == query => {}
        Ok(_) => {
            return (
                xml,
                query.clone(),
                vec![Violation {
                    kind: ViolationKind::Parse,
                    engine: "parser",
                    query: text,
                    detail: "display/parse roundtrip changed the AST".into(),
                }],
                1,
            );
        }
        Err(e) => {
            return (
                xml,
                query.clone(),
                vec![Violation {
                    kind: ViolationKind::Parse,
                    engine: "parser",
                    query: text,
                    detail: format!("generated query failed to parse: {e}"),
                }],
                1,
            );
        }
    }

    let (violations, checks) = battery(&xml, &query);
    (xml, query, violations, checks)
}

/// Breaks case `case_seed`'s document (`xml`, with `query` its query)
/// by a malformation its seed picks, and checks that every delivery of
/// the broken document reaches the verdict of an unprojected parse:
/// `query` on the serial, fragment, pipelined and `FeedReader` drivers
/// (at one seeded chunk split), and `query` with a second generated
/// branch as a 2-shard union. Returns the malformation and the first
/// disagreement.
pub fn malformed_case(
    case_seed: u64,
    xml: &[u8],
    query: &Path,
    query_cfg: &QueryConfig,
) -> (Malformation, Option<Violation>) {
    // A stream of its own, so the valid case's draws do not move.
    let mut rng = SplitMix64::seed_from_u64(case_seed ^ 0xBAD_DA7A);
    let how = MALFORMATIONS[rng.index(MALFORMATIONS.len())];
    let bad = malform(&mut rng, xml, how);
    // Union output is node ids, so neither branch keeps an `/@attr`.
    let branches: Vec<Path> = [query.clone(), generate_query(&mut rng, query_cfg)]
        .into_iter()
        .map(|mut branch| {
            branch.attr = None;
            branch
        })
        .collect();
    let split = STRATEGIES[rng.index(STRATEGIES.len())];
    let violation = check_verdict(&bad, query, &branches, &[split]).map(|mut v| {
        v.detail = format!("{how:?}: {}", v.detail);
        v
    });
    (how, violation)
}

/// Runs the whole seeded fuzz loop.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut master = SplitMix64::seed_from_u64(cfg.seed);
    let mut digest = Digest::new();
    let mut failures = Vec::new();
    let mut checks = 0u64;
    for index in 0..cfg.cases {
        let case_seed = master.next_u64();
        let (xml, query, mut violations, case_checks) = run_case(case_seed, &cfg.doc, &cfg.query);
        checks += case_checks;
        // Only the valid document's violations replay through the
        // battery the shrinker runs.
        let shrinkable = !violations.is_empty();
        if index % MALFORMED_EVERY == 0 {
            checks += 1;
            violations.extend(malformed_case(case_seed, &xml, &query, &cfg.query).1);
        }

        digest.write_u64(case_seed);
        digest.write(query.to_string().as_bytes());
        digest.write_u64(xml.len() as u64);
        if let Ok(doc) = Document::parse_bytes(&xml) {
            for id in oracle_ids(&doc, &query) {
                digest.write_u64(id);
            }
        }
        digest.write_u64(violations.len() as u64);

        if !violations.is_empty() {
            let shrunk = if cfg.shrink && shrinkable {
                let case = FailingCase {
                    xml,
                    query,
                    kind: violations[0].kind,
                };
                Some(shrink(&case, &case_violations, cfg.shrink_budget))
            } else {
                None
            };
            failures.push(CaseReport {
                index,
                case_seed,
                violations,
                shrunk,
            });
        }
    }
    FuzzReport {
        cases: cfg.cases,
        checks,
        failures,
        fingerprint: digest.0,
    }
}

/// Replays a corpus case through the full battery.
pub fn replay_case(case: &Case) -> Result<Vec<Violation>, String> {
    let query = crate::corpus::case_query(case)?;
    Ok(case_violations(&case.xml, &query))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_clean_and_reproducible() {
        let cfg = FuzzConfig {
            seed: 0xFEED_FACE,
            cases: 25,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&cfg);
        assert!(
            a.failures.is_empty(),
            "unexpected failures: {:#?}",
            a.failures
                .iter()
                .flat_map(|f| f.violations.iter().map(|v| v.to_string()))
                .collect::<Vec<_>>()
        );
        assert!(a.checks > a.cases as u64, "battery ran more than once/case");
        let b = run_fuzz(&cfg);
        assert_eq!(a.fingerprint, b.fingerprint, "run is not reproducible");
        let c = run_fuzz(&FuzzConfig { seed: 1, ..cfg });
        assert_ne!(a.fingerprint, c.fingerprint, "fingerprint ignores seed");
    }

    #[test]
    fn replay_detects_a_planted_divergence_free_case() {
        let case = Case {
            kind: "divergence".into(),
            query: "//a[b]//c".into(),
            xml: b"<r><a><b/><c/></a><a><c/></a></r>".to_vec(),
        };
        assert!(replay_case(&case).unwrap().is_empty());
    }
}
