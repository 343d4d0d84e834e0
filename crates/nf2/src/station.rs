//! The benchmark `Station` schema (paper §2.1, Figure 1) and a
//! strongly-typed view over it.
//!
//! ```text
//! COMPLEX OBJECT Station = {(          % 1500 tuples
//!   Key: INT, NoPlatform: INT, NoSeeing: INT, Name: STR,
//!   Platform: {( PlatformNr: INT, NoLine: INT, TicketCode: INT, Information: STR,
//!                Connection: {( LineNr: INT, KeyConnection: INT,
//!                               OidConnection: LINK, DepartureTimes: STR )} )},
//!   Sightseeing: {( SeeingNr: INT, Description: STR, Location: STR,
//!                   History: STR, Remarks: STR )} )}
//! ```

use crate::encode::{check_header, directory_entry, projected_attr, subtuple_offsets};
use crate::{
    decode_attr, AttrDef, AttrType, ByteSource, Key, Nf2Error, Oid, Projection, RelSchema, Result,
    Tuple, Value,
};

/// Attribute indices of the root `Station` relation.
pub mod attr {
    /// `Key: INT` — unique logical key.
    pub const KEY: usize = 0;
    /// `NoPlatform: INT` — number of platform sub-tuples.
    pub const NO_PLATFORM: usize = 1;
    /// `NoSeeing: INT` — number of sightseeing sub-tuples.
    pub const NO_SEEING: usize = 2;
    /// `Name: STR`.
    pub const NAME: usize = 3;
    /// `Platform: {(...)}`.
    pub const PLATFORM: usize = 4;
    /// `Sightseeing: {(...)}`.
    pub const SIGHTSEEING: usize = 5;

    /// Attribute indices of the `Platform` sub-relation.
    pub mod platform {
        /// `PlatformNr: INT`.
        pub const PLATFORM_NR: usize = 0;
        /// `NoLine: INT`.
        pub const NO_LINE: usize = 1;
        /// `TicketCode: INT`.
        pub const TICKET_CODE: usize = 2;
        /// `Information: STR`.
        pub const INFORMATION: usize = 3;
        /// `Connection: {(...)}`.
        pub const CONNECTION: usize = 4;
    }

    /// Attribute indices of the `Connection` sub-relation.
    pub mod connection {
        /// `LineNr: INT`.
        pub const LINE_NR: usize = 0;
        /// `KeyConnection: INT` — logical key of the referenced station.
        pub const KEY_CONNECTION: usize = 1;
        /// `OidConnection: LINK` — reference to the child station.
        pub const OID_CONNECTION: usize = 2;
        /// `DepartureTimes: STR`.
        pub const DEPARTURE_TIMES: usize = 3;
    }

    /// Attribute indices of the `Sightseeing` sub-relation.
    pub mod sightseeing {
        /// `SeeingNr: INT`.
        pub const SEEING_NR: usize = 0;
        /// `Description: STR`.
        pub const DESCRIPTION: usize = 1;
        /// `Location: STR`.
        pub const LOCATION: usize = 2;
        /// `History: STR`.
        pub const HISTORY: usize = 3;
        /// `Remarks: STR`.
        pub const REMARKS: usize = 4;
    }
}

/// Builds the `Connection` sub-relation schema.
pub fn connection_schema() -> RelSchema {
    RelSchema::new(
        "Connection",
        vec![
            AttrDef::new("LineNr", AttrType::Int),
            AttrDef::new("KeyConnection", AttrType::Int),
            AttrDef::new("OidConnection", AttrType::Link),
            AttrDef::new("DepartureTimes", AttrType::Str),
        ],
    )
}

/// Builds the `Platform` sub-relation schema.
pub fn platform_schema() -> RelSchema {
    RelSchema::new(
        "Platform",
        vec![
            AttrDef::new("PlatformNr", AttrType::Int),
            AttrDef::new("NoLine", AttrType::Int),
            AttrDef::new("TicketCode", AttrType::Int),
            AttrDef::new("Information", AttrType::Str),
            AttrDef::new("Connection", AttrType::Rel(Box::new(connection_schema()))),
        ],
    )
}

/// Builds the `Sightseeing` sub-relation schema.
pub fn sightseeing_schema() -> RelSchema {
    RelSchema::new(
        "Sightseeing",
        vec![
            AttrDef::new("SeeingNr", AttrType::Int),
            AttrDef::new("Description", AttrType::Str),
            AttrDef::new("Location", AttrType::Str),
            AttrDef::new("History", AttrType::Str),
            AttrDef::new("Remarks", AttrType::Str),
        ],
    )
}

/// Builds the full nested `Station` schema of Figure 1.
pub fn station_schema() -> RelSchema {
    RelSchema::new(
        "Station",
        vec![
            AttrDef::new("Key", AttrType::Int),
            AttrDef::new("NoPlatform", AttrType::Int),
            AttrDef::new("NoSeeing", AttrType::Int),
            AttrDef::new("Name", AttrType::Str),
            AttrDef::new("Platform", AttrType::Rel(Box::new(platform_schema()))),
            AttrDef::new("Sightseeing", AttrType::Rel(Box::new(sightseeing_schema()))),
        ],
    )
}

/// Projection for the "root record" of a station: the four atomic root
/// attributes. This is what queries 2/3 read (and query 3 updates) for the
/// grand-children ("Input the root records of the grand-children", §2.2).
pub fn proj_root_record() -> Projection {
    Projection::Attrs(vec![
        (attr::KEY, Projection::All),
        (attr::NO_PLATFORM, Projection::All),
        (attr::NO_SEEING, Projection::All),
        (attr::NAME, Projection::All),
    ])
}

/// Projection for navigation: the references to an object's children.
///
/// Needs `Platform.Connection.{KeyConnection, OidConnection}` — "while
/// navigating through an object in order to find the references to its
/// children, only the attributes/tuples that are needed will be
/// projected/selected" (§2.2). Notably the (large) `Sightseeing`
/// sub-relation is *not* touched, which is what gives DASDBS-DSM its
/// advantage in queries 2/3.
pub fn proj_navigation() -> Projection {
    Projection::Attrs(vec![
        (attr::KEY, Projection::All),
        (
            attr::PLATFORM,
            Projection::Attrs(vec![(
                attr::platform::CONNECTION,
                Projection::Attrs(vec![
                    (attr::connection::KEY_CONNECTION, Projection::All),
                    (attr::connection::OID_CONNECTION, Projection::All),
                ]),
            )]),
        ),
    ])
}

/// Hands `f` each `(KeyConnection, OidConnection)` of the station encoded
/// at absolute offset `start` of `bytes` — one buffer or the pages of one
/// ([`ByteSource`]) — in order, read where the references lie: the walk
/// [`crate::decode_projected_at`] makes under [`proj_navigation`], with
/// the same checks in the same order and the same `Ok` or the same `Err`,
/// and nothing built. `bytes` needs valid data only in the ranges
/// [`Projection::byte_ranges`] gives for that projection.
///
/// A connection whose two attributes are not `INT` and `LINK` under
/// `schema` is checked as the decoder checks it and handed to no one. On an
/// `Err`, `f` may have seen the references before the fault.
pub fn child_refs_at<S: ByteSource + ?Sized>(
    bytes: &S,
    schema: &RelSchema,
    start: usize,
    mut f: impl FnMut(Key, Oid),
) -> Result<()> {
    use attr::{connection as ca, platform as pa};
    check_header(bytes, schema, start)?;
    projected_value(bytes, schema, start, attr::KEY)?;
    let Some((platform, at)) = projected_rel(bytes, schema, start, attr::PLATFORM)? else {
        return Ok(());
    };
    for p in subtuple_offsets(bytes, at)? {
        let p = p?;
        check_header(bytes, platform, p)?;
        let Some((connection, at)) = projected_rel(bytes, platform, p, pa::CONNECTION)? else {
            continue;
        };
        for c in subtuple_offsets(bytes, at)? {
            let c = c?;
            check_header(bytes, connection, c)?;
            let key = projected_value(bytes, connection, c, ca::KEY_CONNECTION)?;
            let oid = projected_value(bytes, connection, c, ca::OID_CONNECTION)?;
            if let (Value::Int(key), Value::Link(oid)) = (key, oid) {
                f(key, oid);
            }
        }
    }
    Ok(())
}

/// Attribute `i` of the tuple at `start`, projected whole: decoded as
/// [`crate::decode_projected_at`] decodes it.
fn projected_value<S: ByteSource + ?Sized>(
    bytes: &S,
    schema: &RelSchema,
    start: usize,
    i: usize,
) -> Result<Value> {
    let def = projected_attr(schema, i)?;
    decode_attr(bytes, &def.ty, directory_entry(bytes, start, i)?)
}

/// Attribute `i` of the tuple at `start`, under a sub-projection: its
/// sub-schema and offset when it is relation-valued; any other value is
/// decoded (and so checked) and gives `None`, as the decoder would.
fn projected_rel<'s, S: ByteSource + ?Sized>(
    bytes: &S,
    schema: &'s RelSchema,
    start: usize,
    i: usize,
) -> Result<Option<(&'s RelSchema, usize)>> {
    let def = projected_attr(schema, i)?;
    let at = directory_entry(bytes, start, i)?;
    match &def.ty {
        AttrType::Rel(sub) => Ok(Some((sub, at))),
        ty => decode_attr(bytes, ty, at).map(|_| None),
    }
}

/// A strongly-typed `Connection` sub-object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Connection {
    /// `LineNr`.
    pub line_nr: i32,
    /// `KeyConnection` — key of the referenced station.
    pub key_connection: Key,
    /// `OidConnection` — OID of the referenced station.
    pub oid_connection: Oid,
    /// `DepartureTimes`.
    pub departure_times: String,
}

/// A strongly-typed `Platform` sub-object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Platform {
    /// `PlatformNr`.
    pub platform_nr: i32,
    /// `NoLine`.
    pub no_line: i32,
    /// `TicketCode`.
    pub ticket_code: i32,
    /// `Information`.
    pub information: String,
    /// Nested `Connection` sub-objects.
    pub connections: Vec<Connection>,
}

/// A strongly-typed `Sightseeing` sub-object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sightseeing {
    /// `SeeingNr`.
    pub seeing_nr: i32,
    /// `Description`.
    pub description: String,
    /// `Location`.
    pub location: String,
    /// `History`.
    pub history: String,
    /// `Remarks`.
    pub remarks: String,
}

/// A strongly-typed `Station` complex object.
///
/// `NoPlatform`/`NoSeeing` are derived from the vectors on conversion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Station {
    /// `Key` — unique logical key.
    pub key: Key,
    /// `Name`.
    pub name: String,
    /// Nested `Platform` sub-objects (≤ 2 in the default benchmark).
    pub platforms: Vec<Platform>,
    /// Nested `Sightseeing` sub-objects (≤ 15 in the default benchmark).
    pub sightseeings: Vec<Sightseeing>,
}

impl Station {
    /// Converts to the generic NF² tuple representation.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(vec![
            Value::Int(self.key),
            Value::Int(self.platforms.len() as i32),
            Value::Int(self.sightseeings.len() as i32),
            Value::Str(self.name.clone()),
            Value::Rel(
                self.platforms
                    .iter()
                    .map(|p| {
                        Tuple::new(vec![
                            Value::Int(p.platform_nr),
                            Value::Int(p.no_line),
                            Value::Int(p.ticket_code),
                            Value::Str(p.information.clone()),
                            Value::Rel(
                                p.connections
                                    .iter()
                                    .map(|c| {
                                        Tuple::new(vec![
                                            Value::Int(c.line_nr),
                                            Value::Int(c.key_connection),
                                            Value::Link(c.oid_connection),
                                            Value::Str(c.departure_times.clone()),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ])
                    })
                    .collect(),
            ),
            Value::Rel(
                self.sightseeings
                    .iter()
                    .map(|s| {
                        Tuple::new(vec![
                            Value::Int(s.seeing_nr),
                            Value::Str(s.description.clone()),
                            Value::Str(s.location.clone()),
                            Value::Str(s.history.clone()),
                            Value::Str(s.remarks.clone()),
                        ])
                    })
                    .collect(),
            ),
        ])
    }

    /// Parses a generic tuple (full, unprojected) back into the typed view.
    pub fn from_tuple(t: &Tuple) -> Result<Station> {
        let err = |what: &str| Nf2Error::SchemaMismatch {
            detail: format!("Station::{what}"),
        };
        let key = t
            .attr(attr::KEY)
            .and_then(Value::as_int)
            .ok_or_else(|| err("Key"))?;
        let name = t
            .attr(attr::NAME)
            .and_then(Value::as_str)
            .ok_or_else(|| err("Name"))?
            .to_owned();
        let platforms = t
            .attr(attr::PLATFORM)
            .and_then(Value::as_rel)
            .ok_or_else(|| err("Platform"))?
            .iter()
            .map(|p| {
                use attr::platform as pa;
                Ok(Platform {
                    platform_nr: p
                        .attr(pa::PLATFORM_NR)
                        .and_then(Value::as_int)
                        .ok_or_else(|| err("PlatformNr"))?,
                    no_line: p
                        .attr(pa::NO_LINE)
                        .and_then(Value::as_int)
                        .ok_or_else(|| err("NoLine"))?,
                    ticket_code: p
                        .attr(pa::TICKET_CODE)
                        .and_then(Value::as_int)
                        .ok_or_else(|| err("TicketCode"))?,
                    information: p
                        .attr(pa::INFORMATION)
                        .and_then(Value::as_str)
                        .ok_or_else(|| err("Information"))?
                        .to_owned(),
                    connections: p
                        .attr(pa::CONNECTION)
                        .and_then(Value::as_rel)
                        .ok_or_else(|| err("Connection"))?
                        .iter()
                        .map(|c| {
                            use attr::connection as ca;
                            Ok(Connection {
                                line_nr: c
                                    .attr(ca::LINE_NR)
                                    .and_then(Value::as_int)
                                    .ok_or_else(|| err("LineNr"))?,
                                key_connection: c
                                    .attr(ca::KEY_CONNECTION)
                                    .and_then(Value::as_int)
                                    .ok_or_else(|| err("KeyConnection"))?,
                                oid_connection: c
                                    .attr(ca::OID_CONNECTION)
                                    .and_then(Value::as_link)
                                    .ok_or_else(|| err("OidConnection"))?,
                                departure_times: c
                                    .attr(ca::DEPARTURE_TIMES)
                                    .and_then(Value::as_str)
                                    .ok_or_else(|| err("DepartureTimes"))?
                                    .to_owned(),
                            })
                        })
                        .collect::<Result<Vec<_>>>()?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let sightseeings = t
            .attr(attr::SIGHTSEEING)
            .and_then(Value::as_rel)
            .ok_or_else(|| err("Sightseeing"))?
            .iter()
            .map(|s| {
                use attr::sightseeing as sa;
                Ok(Sightseeing {
                    seeing_nr: s
                        .attr(sa::SEEING_NR)
                        .and_then(Value::as_int)
                        .ok_or_else(|| err("SeeingNr"))?,
                    description: s
                        .attr(sa::DESCRIPTION)
                        .and_then(Value::as_str)
                        .ok_or_else(|| err("Description"))?
                        .to_owned(),
                    location: s
                        .attr(sa::LOCATION)
                        .and_then(Value::as_str)
                        .ok_or_else(|| err("Location"))?
                        .to_owned(),
                    history: s
                        .attr(sa::HISTORY)
                        .and_then(Value::as_str)
                        .ok_or_else(|| err("History"))?
                        .to_owned(),
                    remarks: s
                        .attr(sa::REMARKS)
                        .and_then(Value::as_str)
                        .ok_or_else(|| err("Remarks"))?
                        .to_owned(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Station {
            key,
            name,
            platforms,
            sightseeings,
        })
    }

    /// All `(KeyConnection, OidConnection)` pairs — the object's children.
    pub fn child_refs(&self) -> Vec<(Key, Oid)> {
        self.platforms
            .iter()
            .flat_map(|p| {
                p.connections
                    .iter()
                    .map(|c| (c.key_connection, c.oid_connection))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, encode, encoded_len};

    fn sample_station() -> Station {
        Station {
            key: 17,
            name: "N".repeat(100),
            platforms: vec![Platform {
                platform_nr: 1,
                no_line: 2,
                ticket_code: 3,
                information: "I".repeat(100),
                connections: vec![
                    Connection {
                        line_nr: 10,
                        key_connection: 55,
                        oid_connection: Oid(55),
                        departure_times: "T".repeat(100),
                    },
                    Connection {
                        line_nr: 11,
                        key_connection: 56,
                        oid_connection: Oid(56),
                        departure_times: "T".repeat(100),
                    },
                ],
            }],
            sightseeings: vec![Sightseeing {
                seeing_nr: 1,
                description: "D".repeat(100),
                location: "L".repeat(100),
                history: "H".repeat(100),
                remarks: "R".repeat(100),
            }],
        }
    }

    #[test]
    fn schema_shape_matches_figure_1() {
        let s = station_schema();
        assert_eq!(s.arity(), 6);
        assert_eq!(s.depth(), 3);
        assert_eq!(s.attr_index("Key"), Some(attr::KEY));
        assert_eq!(s.attr_index("Platform"), Some(attr::PLATFORM));
        assert_eq!(s.attr_index("Sightseeing"), Some(attr::SIGHTSEEING));
        let p = s.sub_schema(attr::PLATFORM).unwrap();
        assert_eq!(p.arity(), 5);
        let c = p.sub_schema(attr::platform::CONNECTION).unwrap();
        assert_eq!(c.arity(), 4);
        assert_eq!(c.attrs[attr::connection::OID_CONNECTION].ty, AttrType::Link);
        let ss = s.sub_schema(attr::SIGHTSEEING).unwrap();
        assert_eq!(ss.arity(), 5);
        assert_eq!(ss.depth(), 1);
    }

    #[test]
    fn typed_roundtrip_through_tuple_and_bytes() {
        let st = sample_station();
        let t = st.to_tuple();
        station_schema().validate(&t).unwrap();
        let bytes = encode(&t, &station_schema()).unwrap();
        let back = Station::from_tuple(&decode(&bytes, &station_schema()).unwrap()).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn derived_counts_are_set() {
        let t = sample_station().to_tuple();
        assert_eq!(t.attr(attr::NO_PLATFORM).unwrap().as_int(), Some(1));
        assert_eq!(t.attr(attr::NO_SEEING).unwrap().as_int(), Some(1));
    }

    /// The references of an encoding, in order.
    fn refs_at(bytes: &[u8]) -> Result<Vec<(Key, Oid)>> {
        let mut out = Vec::new();
        child_refs_at(bytes, &station_schema(), 0, |k, o| out.push((k, o)))?;
        Ok(out)
    }

    #[test]
    fn child_refs_from_tuple_and_typed_agree() {
        let st = sample_station();
        let bytes = encode(&st.to_tuple(), &station_schema()).unwrap();
        assert_eq!(refs_at(&bytes).unwrap(), st.child_refs());
        assert_eq!(st.child_refs(), vec![(55, Oid(55)), (56, Oid(56))]);
    }

    #[test]
    fn navigation_projection_keeps_refs_and_drops_sightseeing() {
        let st = sample_station();
        let t = st.to_tuple();
        let proj = proj_navigation();
        proj.validate(&station_schema()).unwrap();
        let projected = proj.apply(&t, &station_schema());
        assert!(projected
            .attr(attr::SIGHTSEEING)
            .unwrap()
            .as_rel()
            .unwrap()
            .is_empty());
        // The projected byte ranges must exclude the sightseeing suffix.
        let (bytes, layout) = crate::encode_with_layout(&t, &station_schema()).unwrap();
        let ranges = proj.byte_ranges(&layout);
        let ss_start = layout.attrs[attr::SIGHTSEEING].start
            + crate::overhead::SUBREL_HEADER as u32
            + crate::overhead::PER_SUBTUPLE as u32;
        assert!(
            ranges.iter().all(|r| r.end <= ss_start),
            "navigation must not touch sightseeing bytes: {ranges:?} vs start {ss_start}"
        );
        assert!(bytes.len() as u32 > ss_start);
        // And the references are read from those ranges alone.
        let mut sparse = vec![0; bytes.len()];
        for r in ranges {
            let r = r.start as usize..r.end as usize;
            sparse[r.clone()].copy_from_slice(&bytes[r]);
        }
        assert_eq!(refs_at(&sparse).unwrap(), st.child_refs());
    }

    #[test]
    fn root_record_projection_covers_prefix_only() {
        let st = sample_station();
        let (bytes, layout) = crate::encode_with_layout(&st.to_tuple(), &station_schema()).unwrap();
        let ranges = proj_root_record().byte_ranges(&layout);
        // Root record = header + 4 atomic attrs, all contiguous from 0.
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].start, 0);
        let platform_start = layout.attrs[attr::PLATFORM].start;
        assert_eq!(ranges[0].end, platform_start);
        assert!((ranges[0].end as usize) < bytes.len());
    }

    #[test]
    fn average_station_size_matches_design_estimate() {
        // DESIGN.md §6: an average station (1.6 platforms, 4.096 connections,
        // 7.5 sightseeings) encodes to ≈ 4.5 KB; the paper's DASDBS figure is
        // 6078 B including one fully-counted header page. Sanity-check the
        // encoding against the closed-form size model here with integer
        // counts: 2 platforms, 2 connections each, 7 sightseeings.
        let mut st = sample_station();
        st.platforms.push(st.platforms[0].clone());
        st.sightseeings = vec![st.sightseeings[0].clone(); 7];
        let t = st.to_tuple();
        // Closed form per DESIGN.md §6 / crate::overhead.
        let conn = 20 + 4 * 4 + (4 + 4 + 4 + 102);
        let platform = 20 + 5 * 4 + (4 + 4 + 4 + 102) + (8 + 2 * (4 + conn));
        let seeing = 20 + 5 * 4 + (4 + 4 * 102);
        let station =
            20 + 6 * 4 + (4 + 4 + 4 + 102) + (8 + 2 * (4 + platform)) + (8 + 7 * (4 + seeing));
        assert_eq!(encoded_len(&t), station);
        assert_eq!(conn, 150, "connection encoding size");
        assert_eq!(seeing, 452, "sightseeing encoding size");
    }
}
