//! # starfish-nf2 — the NF² complex-object data model
//!
//! This crate implements the hierarchical complex-object model used by the
//! ICDE 1993 paper *"An Evaluation of Physical Disk I/Os for Complex Object
//! Processing"* (Teeuw, Rich, Scholl, Blanken): **nested (NF²) tuples** —
//! tuples whose attributes may be atomic values (`INT`, `STR`), references to
//! other objects (`LINK`), or relation-valued (sets of sub-tuples).
//!
//! It provides:
//!
//! * [`Value`], [`Tuple`] — the object representation;
//! * [`RelSchema`], [`AttrType`] — nested schemas with validation;
//! * [`encode`]/[`decode`] — a deterministic binary encoding whose overhead
//!   constants are calibrated against the recoverable cells of the paper's
//!   Table 2 (see `DESIGN.md` §6);
//! * [`TupleLayout`] — byte-range metadata ("object header" contents) that
//!   lets the DASDBS-style storage models fetch only the pages that hold the
//!   parts of an object a query actually uses;
//! * [`Projection`] — which parts of an object a query needs;
//! * [`station`] — the benchmark `Station` schema of the paper's §2 plus a
//!   strongly-typed view.
//!
//! The crate is deliberately free of any storage concern: it knows about
//! bytes and byte ranges, never about pages or disks.
//!
//! ```
//! use starfish_nf2::{encode, decode, station::{station_schema, Station}};
//!
//! let station = Station {
//!     key: 7,
//!     name: "Enschede".into(),
//!     platforms: vec![],
//!     sightseeings: vec![],
//! };
//! let schema = station_schema();
//! let bytes = encode(&station.to_tuple(), &schema)?;
//! let back = Station::from_tuple(&decode(&bytes, &schema)?)?;
//! assert_eq!(back, station);
//! # Ok::<(), starfish_nf2::Nf2Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod encode;
mod error;
mod layout;
mod oid;
mod path;
mod schema;
pub mod station;
mod value;

pub use encode::{
    attr_offset, decode, decode_attr, decode_projected, decode_projected_at, decode_tuple_at,
    encode, encode_with_layout, encoded_len, str_at, validate_at,
};
pub use error::Nf2Error;
pub use layout::{AttrLayout, TupleLayout};
pub use oid::{Key, Oid};
pub use path::Projection;
pub use schema::{AttrDef, AttrType, RelSchema};
pub use value::{Tuple, Value};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Nf2Error>;

/// Encoding overhead constants, calibrated against the paper's Table 2.
///
/// The paper reports "average DASDBS sizes" of stored tuples which include
/// DASDBS's storage overhead. From the recoverable cells
/// (`NSM-Connection: 170 B, k = 11, m = 559`; `NSM-Station: k = 13, m = 116`;
/// `NSM-Sightseeing: k = 4, m = 2813`) we solved for the overhead model
/// below; it reproduces every recoverable `k`/`m` exactly (see
/// `starfish-cost` tests).
pub mod overhead {
    /// Fixed per-tuple header: magic, version, attribute count, flags,
    /// total length, reserved (mirrors a DASDBS sub-tuple directory entry).
    pub const TUPLE_HEADER: usize = 20;
    /// Per-attribute directory entry (byte offset of the attribute).
    pub const PER_ATTR: usize = 4;
    /// Length prefix per string value.
    pub const PER_STRING: usize = 2;
    /// Sub-relation header: member count + total byte length.
    pub const SUBREL_HEADER: usize = 8;
    /// Address-table entry per sub-tuple inside a relation-valued attribute.
    pub const PER_SUBTUPLE: usize = 4;
}
