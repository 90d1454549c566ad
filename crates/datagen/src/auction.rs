//! The Auction dataset: the role of the XMark benchmark document
//! (paper §5.1, second dataset).
//!
//! The shape follows XMark's auction DTD: regional item listings,
//! categories, registered people, and open/closed auctions. Unlike
//! XMark's single fixed document, they sit one level down, in a `block`
//! that repeats under `site` until the byte target is met
//! (`/site/block/regions/…`), which is how the harness produces the
//! paper's ~34 MB size. The only recursion is the
//! shallow `parlist/listitem/parlist` chain inside descriptions, so all
//! systems behave regularly here — the role this dataset plays in
//! figure 7(b).

use std::io::{self, Write};

use crate::dtd::{AttrGen, Content, Dtd, ElementDef, Occurs, Particle, TextGen};
use crate::generator::{GenConfig, GenReport, Generator};

/// Size of the person/item id pools that references draw from.
const REF_POOL: usize = 2_000;

/// Builds the auction DTD.
pub fn dtd() -> Dtd {
    let mut dtd = Dtd::new("site", "block");
    // A `block` is one repeatable slice of the site with every record
    // type, so any prefix of the document exercises all query paths.
    dtd.element(
        "block",
        ElementDef::seq(vec![
            Particle::new("regions", Occurs::One),
            Particle::new("categories", Occurs::One),
            Particle::new("people", Occurs::One),
            Particle::new("open_auctions", Occurs::One),
            Particle::new("closed_auctions", Occurs::One),
        ]),
    );
    dtd.element(
        "regions",
        ElementDef::seq(vec![
            Particle::new("africa", Occurs::One),
            Particle::new("asia", Occurs::One),
            Particle::new("europe", Occurs::One),
            Particle::new("namerica", Occurs::One),
        ]),
    );
    for region in ["africa", "asia", "europe", "namerica"] {
        dtd.element(
            region,
            ElementDef::seq(vec![Particle::new("item", Occurs::Plus)]),
        );
    }
    dtd.element(
        "item",
        ElementDef::seq(vec![
            Particle::new("location", Occurs::One),
            Particle::new("name", Occurs::One),
            Particle::new("payment", Occurs::Opt),
            Particle::new("description", Occurs::One),
            Particle::new("quantity", Occurs::One),
        ])
        .with_attr("id", AttrGen::Id("item".into()), 1.0)
        .with_attr(
            "featured",
            AttrGen::Choice(vec!["yes".into(), "no".into()]),
            0.3,
        ),
    );
    dtd.element("location", ElementDef::pcdata(TextGen::Words(1, 2)));
    dtd.element("name", ElementDef::pcdata(TextGen::Words(2, 4)));
    dtd.element("payment", ElementDef::pcdata(TextGen::Words(1, 3)));
    dtd.element(
        "description",
        ElementDef {
            content: Content::Choice {
                options: vec![
                    Particle::new("text", Occurs::One),
                    Particle::new("parlist", Occurs::One),
                ],
                rounds: (1, 1),
            },
            attrs: vec![],
            text: TextGen::Words(0, 0),
        },
    );
    dtd.element(
        "parlist",
        ElementDef::seq(vec![Particle::new("listitem", Occurs::Plus)]),
    );
    dtd.element(
        "listitem",
        ElementDef {
            // Recursive with low probability: text 3x more likely.
            content: Content::Choice {
                options: vec![
                    Particle::new("text", Occurs::One),
                    Particle::new("text", Occurs::One),
                    Particle::new("text", Occurs::One),
                    Particle::new("parlist", Occurs::One),
                ],
                rounds: (1, 1),
            },
            attrs: vec![],
            text: TextGen::Words(0, 0),
        },
    );
    dtd.element("text", ElementDef::pcdata(TextGen::Words(5, 20)));
    dtd.element(
        "categories",
        ElementDef::seq(vec![Particle::new("category", Occurs::Plus)]),
    );
    dtd.element(
        "category",
        ElementDef::seq(vec![
            Particle::new("name", Occurs::One),
            Particle::new("description", Occurs::One),
        ])
        .with_attr("id", AttrGen::Id("category".into()), 1.0),
    );
    dtd.element(
        "people",
        ElementDef::seq(vec![Particle::new("person", Occurs::Plus)]),
    );
    dtd.element(
        "person",
        ElementDef::seq(vec![
            Particle::new("name", Occurs::One),
            Particle::new("emailaddress", Occurs::One),
            Particle::new("phone", Occurs::Opt),
            Particle::new("address", Occurs::Opt),
            Particle::new("profile", Occurs::Opt),
        ])
        .with_attr("id", AttrGen::Id("person".into()), 1.0),
    );
    dtd.element("emailaddress", ElementDef::pcdata(TextGen::Words(1, 1)));
    dtd.element(
        "phone",
        ElementDef::pcdata(TextGen::Int(1_000_000, 9_999_999)),
    );
    dtd.element(
        "address",
        ElementDef::seq(vec![
            Particle::new("street", Occurs::One),
            Particle::new("city", Occurs::One),
            Particle::new("country", Occurs::One),
            Particle::new("zipcode", Occurs::One),
        ]),
    );
    dtd.element("street", ElementDef::pcdata(TextGen::Words(2, 3)));
    dtd.element("city", ElementDef::pcdata(TextGen::Words(1, 1)));
    dtd.element("country", ElementDef::pcdata(TextGen::Words(1, 1)));
    dtd.element("zipcode", ElementDef::pcdata(TextGen::Int(10_000, 99_999)));
    dtd.element(
        "profile",
        ElementDef::seq(vec![
            Particle::new("interest", Occurs::Star),
            Particle::new("education", Occurs::Opt),
            Particle::new("business", Occurs::One),
            Particle::new("age", Occurs::Opt),
        ])
        .with_attr("income", AttrGen::Int(9_000, 200_000), 1.0),
    );
    dtd.element(
        "interest",
        ElementDef::empty().with_attr("category", AttrGen::Ref("category".into(), REF_POOL), 1.0),
    );
    dtd.element(
        "education",
        ElementDef::pcdata(TextGen::Choice(vec![
            "High School".into(),
            "College".into(),
            "Graduate School".into(),
            "Other".into(),
        ])),
    );
    dtd.element(
        "business",
        ElementDef::pcdata(TextGen::Choice(vec!["Yes".into(), "No".into()])),
    );
    dtd.element("age", ElementDef::pcdata(TextGen::Int(18, 90)));
    dtd.element(
        "open_auctions",
        ElementDef::seq(vec![Particle::new("open_auction", Occurs::Plus)]),
    );
    dtd.element(
        "open_auction",
        ElementDef::seq(vec![
            Particle::new("initial", Occurs::One),
            Particle::new("bidder", Occurs::Star),
            Particle::new("current", Occurs::One),
            Particle::new("itemref", Occurs::One),
            Particle::new("seller", Occurs::One),
            Particle::new("quantity", Occurs::One),
            Particle::new("type", Occurs::One),
        ])
        .with_attr("id", AttrGen::Id("open_auction".into()), 1.0),
    );
    dtd.element("initial", ElementDef::pcdata(TextGen::Int(1, 300)));
    dtd.element("current", ElementDef::pcdata(TextGen::Int(1, 5_000)));
    dtd.element(
        "bidder",
        ElementDef::seq(vec![
            Particle::new("date", Occurs::One),
            Particle::new("time", Occurs::One),
            Particle::new("personref", Occurs::One),
            Particle::new("increase", Occurs::One),
        ]),
    );
    dtd.element("date", ElementDef::pcdata(TextGen::Date));
    dtd.element(
        "time",
        ElementDef::pcdata(TextGen::Choice(vec![
            "09:15:00".into(),
            "12:00:00".into(),
            "18:30:00".into(),
            "22:45:00".into(),
        ])),
    );
    dtd.element(
        "personref",
        ElementDef::empty().with_attr("person", AttrGen::Ref("person".into(), REF_POOL), 1.0),
    );
    dtd.element("increase", ElementDef::pcdata(TextGen::Int(1, 50)));
    dtd.element(
        "itemref",
        ElementDef::empty().with_attr("item", AttrGen::Ref("item".into(), REF_POOL), 1.0),
    );
    dtd.element(
        "seller",
        ElementDef::empty().with_attr("person", AttrGen::Ref("person".into(), REF_POOL), 1.0),
    );
    dtd.element("quantity", ElementDef::pcdata(TextGen::Int(1, 10)));
    dtd.element(
        "type",
        ElementDef::pcdata(TextGen::Choice(vec![
            "Regular".into(),
            "Featured".into(),
            "Dutch".into(),
        ])),
    );
    dtd.element(
        "closed_auctions",
        ElementDef::seq(vec![Particle::new("closed_auction", Occurs::Plus)]),
    );
    dtd.element(
        "closed_auction",
        ElementDef::seq(vec![
            Particle::new("seller", Occurs::One),
            Particle::new("buyer", Occurs::One),
            Particle::new("itemref", Occurs::One),
            Particle::new("price", Occurs::One),
            Particle::new("date", Occurs::One),
            Particle::new("quantity", Occurs::One),
            Particle::new("type", Occurs::One),
            Particle::new("annotation", Occurs::Opt),
        ]),
    );
    dtd.element(
        "buyer",
        ElementDef::empty().with_attr("person", AttrGen::Ref("person".into(), REF_POOL), 1.0),
    );
    dtd.element("price", ElementDef::pcdata(TextGen::Int(1, 9_999)));
    dtd.element(
        "annotation",
        ElementDef::seq(vec![Particle::new("description", Occurs::One)]),
    );
    dtd
}

/// Generates approximately `target_bytes` of auction data.
pub fn generate(seed: u64, target_bytes: usize, out: &mut dyn Write) -> io::Result<GenReport> {
    let dtd = dtd();
    Generator::new(&dtd, GenConfig::new(seed, target_bytes)).run(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_parlist_recursion() {
        let recursive = dtd().recursive_elements();
        assert_eq!(
            recursive,
            vec!["listitem".to_string(), "parlist".to_string()]
        );
    }

    #[test]
    fn generated_data_contains_all_sections() {
        let mut out = Vec::new();
        generate(42, 80_000, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        for tag in [
            "<regions>",
            "<open_auctions>",
            "<closed_auctions>",
            "<people>",
            "<person id=\"person0\"",
            "<itemref item=",
            "<categories>",
        ] {
            assert!(text.contains(tag), "missing {tag}");
        }
    }

    /// The document is `/site/block/{regions, categories, people,
    /// open_auctions, closed_auctions}` — one repeated slice of XMark's
    /// `site` per block — not XMark's `site/{regions, …}`. The
    /// `auction-union-2t` benchmark inputs are generated from this shape,
    /// so it must not drift.
    #[test]
    fn sections_nest_under_repeated_site_blocks() {
        let mut out = Vec::new();
        generate(42, 80_000, &mut out).unwrap();
        let mut reader = twigm_sax::SaxReader::from_bytes(&out);
        let mut path: Vec<String> = Vec::new();
        let (mut blocks, mut sections) = (0, Vec::new());
        while let Some(event) = reader.next_event().unwrap() {
            match event {
                twigm_sax::Event::Start(tag) => {
                    path.push(tag.name().to_string());
                    match path.len() {
                        1 => assert_eq!(tag.name(), "site"),
                        2 => {
                            assert_eq!(tag.name(), "block");
                            blocks += 1;
                        }
                        3 if blocks == 1 => sections.push(tag.name().to_string()),
                        _ => {}
                    }
                }
                twigm_sax::Event::End(_) => {
                    path.pop();
                }
                _ => {}
            }
        }
        assert!(blocks > 1, "{blocks} block(s)");
        let expected = [
            "regions",
            "categories",
            "people",
            "open_auctions",
            "closed_auctions",
        ];
        assert_eq!(sections, expected);
    }

    #[test]
    fn depth_is_moderate() {
        let mut out = Vec::new();
        let report = generate(42, 80_000, &mut out).unwrap();
        assert!(report.max_depth >= 5);
        assert!(report.max_depth <= 20);
    }
}
