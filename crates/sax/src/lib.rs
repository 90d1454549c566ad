//! Streaming SAX-style XML parser and writer for the TwigM XPath processor.
//!
//! The TwigM paper (Chen, Davidson, Zheng — ICDE 2006) models an XML stream
//! as a sequence of *modified SAX events*:
//!
//! * `startElement(tag, level, id)` — `level` is the depth of the node in
//!   the XML tree (the root element has level 1) and `id` is a unique,
//!   document-order (pre-order) identifier;
//! * `endElement(tag, level)`.
//!
//! This crate provides exactly that event stream, produced by a pull-based
//! reader ([`SaxReader`]) that works over any [`std::io::Read`] with a
//! bounded internal buffer, so arbitrarily large documents can be processed
//! in constant memory. A push-based API ([`SaxHandler`] + [`parse_reader`] /
//! [`parse_bytes`]) is layered on top for engines that prefer callbacks.
//!
//! The parser handles start/end/empty tags, attributes, character data,
//! CDATA sections, comments, processing instructions, the XML declaration,
//! DOCTYPE declarations (skipped), and the five predefined entities plus
//! numeric character references. It checks well-formedness (tag balance,
//! single root element, attribute uniqueness, entity references in text
//! and in every attribute value) and reports typed errors with byte
//! offsets. Attribute entities are checked when the tag is scanned, so a
//! consumer that never decodes attributes still sees the same error.
//!
//! A reader given a [`Projection`] skims the content of elements below
//! which no query node can match ([`SaxReader::project`]): no events,
//! no decoding, but the same checks and the same errors.
//!
//! [`XmlWriter`] is the inverse: an escaping serializer used by the dataset
//! generators and by TwigM's XML-fragment output mode.
//!
//! # Example
//!
//! ```
//! use twigm_sax::{SaxReader, Event};
//!
//! let xml = b"<book><title>Streams</title></book>";
//! let mut reader = SaxReader::from_bytes(&xml[..]);
//! let mut tags = Vec::new();
//! while let Some(event) = reader.next_event().unwrap() {
//!     if let Event::Start(tag) = event {
//!         tags.push(format!("{}@{}#{}", tag.name(), tag.level(), tag.id().get()));
//!     }
//! }
//! assert_eq!(tags, ["book@1#0", "title@2#1"]);
//! ```

// `deny` rather than `forbid`: the SSE2 fast path in `scan` needs raw
// 16-byte loads and locally re-allows `unsafe` behind a safe API; every
// other module stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod entity;
mod error;
mod event;
mod handler;
pub mod projection;
mod reader;
pub mod scan;
mod symbol;
mod writer;

pub use batch::{BatchEvent, BatchEventKind, BatchPlan, BatchProducer, EventBatch};
pub use entity::{
    decode_entities, decode_entities_into, decode_entities_with, escape_attr, escape_text,
    EntityMap,
};
pub use error::{SaxError, SaxResult};
pub use event::{Attribute, EndTag, Event, NodeId, OwnedEvent, StartTag};
pub use handler::{parse_bytes, parse_reader, SaxHandler};
pub use projection::Projection;
pub use reader::{FeedEvent, FeedReader, SaxReader};
pub use symbol::{Symbol, SymbolTable};
pub use writer::XmlWriter;
