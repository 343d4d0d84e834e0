//! The directory-walking projected decoder against its reference.
//!
//! [`decode_projected_at`] walks the encoding's own directory and decodes
//! only what a projection names; `Projection::apply(&decode(..))` decodes
//! everything and then drops the rest. Over generated stations and
//! projections the two must agree — on the full buffer and on a buffer
//! zero-filled outside [`Projection::byte_ranges`] — and the range cursor
//! over a serialized layout must agree with the ranges of the parsed tree.
//! Truncated input is an error (or, where the walk never reaches the cut,
//! the right answer), never a panic. [`validate_at`] — the check an
//! in-place update runs — agrees with the full decode on damaged input too:
//! same verdict, same error. And every decoder reads the pages of a buffer
//! ([`Paged`], packed or cut at arbitrary starts) as it reads the buffer:
//! same tuple or same error, truncated and corrupted input included. The
//! header cursor accepts exactly what the tree parser accepts, and the
//! navigation's reference walk [`child_refs_at`] answers as the navigation
//! decode does. A scan's [`decode_tuple_into`], decoding into a tuple some
//! other station left, answers as a fresh [`decode_tuple_at`] does.

use proptest::prelude::*;
use starfish_nf2::station::{
    attr, child_refs_at, proj_navigation, proj_root_record, station_schema, Connection, Platform,
    Sightseeing, Station,
};
use starfish_nf2::{
    decode, decode_projected, decode_projected_at, decode_tuple_at, decode_tuple_into,
    encode_with_layout, validate_at, AttrType, ByteSource, Key, Nf2Error, Oid, Paged, Projection,
    RelSchema, Tuple, TupleLayout, Value,
};

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::char::range('a', 'z'), 0..24)
        .prop_map(|cs| cs.into_iter().collect())
}

fn arb_connection() -> impl Strategy<Value = Connection> {
    (any::<i32>(), any::<i32>(), any::<u32>(), arb_string()).prop_map(|(l, k, o, t)| Connection {
        line_nr: l,
        key_connection: k,
        oid_connection: Oid(o),
        departure_times: t,
    })
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    (
        any::<i32>(),
        any::<i32>(),
        arb_string(),
        proptest::collection::vec(arb_connection(), 0..4),
    )
        .prop_map(|(nr, code, information, connections)| Platform {
            platform_nr: nr,
            no_line: connections.len() as i32,
            ticket_code: code,
            information,
            connections,
        })
}

fn arb_sightseeing() -> impl Strategy<Value = Sightseeing> {
    (any::<i32>(), arb_string(), arb_string(), arb_string()).prop_map(|(nr, d, l, h)| Sightseeing {
        seeing_nr: nr,
        description: d,
        location: l,
        remarks: h.clone(),
        history: h,
    })
}

fn arb_station() -> impl Strategy<Value = Station> {
    (
        any::<i32>(),
        arb_string(),
        proptest::collection::vec(arb_platform(), 0..3),
        proptest::collection::vec(arb_sightseeing(), 0..5),
    )
        .prop_map(|(key, name, platforms, sightseeings)| Station {
            key,
            name,
            platforms,
            sightseeings,
        })
}

/// The next value below `n` of the stream seeded by `bits`.
fn draw(bits: &mut u64, n: u64) -> u64 {
    *bits = bits
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*bits >> 33) % n
}

/// A valid projection over `schema` drawn from `bits`: every attribute is in
/// or out, relation-valued ones whole or under a sub-projection; the entries
/// may come out reversed, and a projected relation may be listed twice.
fn projection_from_bits(schema: &RelSchema, bits: &mut u64) -> Projection {
    let mut attrs = Vec::new();
    for (i, def) in schema.attrs.iter().enumerate() {
        if draw(bits, 2) == 0 {
            continue;
        }
        match &def.ty {
            AttrType::Rel(sub) if draw(bits, 3) != 0 => {
                attrs.push((i, projection_from_bits(sub, bits)));
                if draw(bits, 5) == 0 {
                    attrs.push((i, projection_from_bits(sub, bits)));
                }
            }
            _ => attrs.push((i, Projection::All)),
        }
    }
    if draw(bits, 2) == 0 {
        attrs.reverse();
    }
    Projection::Attrs(attrs)
}

/// The projections every case is checked under: the three the stores use
/// plus two drawn from `bits`.
fn projections(schema: &RelSchema, mut bits: u64) -> Vec<Projection> {
    vec![
        Projection::All,
        proj_navigation(),
        proj_root_record(),
        Projection::atomics(schema),
        projection_from_bits(schema, &mut bits),
        projection_from_bits(schema, &mut bits),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn walker_equals_reference(s in arb_station(), bits in any::<u64>()) {
        let schema = station_schema();
        let (bytes, layout) = encode_with_layout(&s.to_tuple(), &schema).unwrap();
        let full = decode(&bytes, &schema).unwrap();
        for proj in projections(&schema, bits) {
            proj.validate(&schema).unwrap();
            let expect = proj.apply(&full, &schema);
            prop_assert_eq!(&decode_projected_at(&bytes, &schema, 0, &proj).unwrap(), &expect);
            prop_assert_eq!(&decode_projected(&bytes, &schema, &layout, &proj).unwrap(), &expect);
            // Only the projected ranges fetched, the rest zero-filled.
            let mut sparse = vec![0u8; bytes.len()];
            for r in proj.byte_ranges(&layout) {
                let r = r.start as usize..r.end as usize;
                sparse[r.clone()].copy_from_slice(&bytes[r]);
            }
            prop_assert_eq!(&decode_projected_at(&sparse, &schema, 0, &proj).unwrap(), &expect);
        }
    }

    #[test]
    fn range_cursor_equals_tree_ranges(s in arb_station(), bits in any::<u64>()) {
        let schema = station_schema();
        let (_, layout) = encode_with_layout(&s.to_tuple(), &schema).unwrap();
        let header = layout.to_bytes();
        let tree = TupleLayout::from_bytes(&header).unwrap();
        for proj in projections(&schema, bits) {
            prop_assert_eq!(
                proj.byte_ranges_from_bytes(&header).unwrap(),
                proj.byte_ranges(&tree)
            );
        }
        // The cursor walks (or skips) the whole serialization: any cut fails.
        for cut in 0..header.len() {
            prop_assert!(TupleLayout::from_bytes(&header[..cut]).is_err(), "cut={}", cut);
            for proj in [Projection::All, proj_navigation()] {
                prop_assert!(proj.byte_ranges_from_bytes(&header[..cut]).is_err(), "cut={}", cut);
            }
        }
    }
}

/// `header` with the byte at `at` flipped by a mask drawn from `bits`.
fn flip_byte(header: &[u8], at: usize, bits: &mut u64) -> Vec<u8> {
    let mut flipped = header.to_vec();
    flipped[at] ^= 1 + draw(bits, 255) as u8;
    flipped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The header cursor accepts exactly the serializations the tree parser
    /// accepts, and names the tree's ranges: on every cut and on a flip of
    /// every single byte of a generated header, under the projections the
    /// stores read with.
    #[test]
    fn the_header_cursor_accepts_what_the_tree_parser_accepts(
        s in arb_station(),
        mut bits in any::<u64>(),
    ) {
        let schema = station_schema();
        let (_, layout) = encode_with_layout(&s.to_tuple(), &schema).unwrap();
        let header = layout.to_bytes();
        let projs = [Projection::All, proj_navigation(), proj_root_record()];
        let check = |h: &[u8]| -> Result<(), TestCaseError> {
            let tree = TupleLayout::from_bytes(h);
            for proj in &projs {
                let cursor = proj.byte_ranges_from_bytes(h);
                match &tree {
                    Ok(tree) => prop_assert_eq!(cursor, Ok(proj.byte_ranges(tree))),
                    Err(_) => prop_assert!(cursor.is_err(), "{:?} accepted {:?}", proj, h),
                }
            }
            Ok(())
        };
        for cut in 0..=header.len() {
            check(&header[..cut])?;
        }
        for at in 0..header.len() {
            check(&flip_byte(&header, at, &mut bits))?;
        }
    }
}

/// Each error of the header cursor, with its offset and text: a value cut
/// short (`u32` and `u16`), and a count larger than the bytes left can hold.
#[test]
fn the_header_cursor_names_where_and_why_it_failed() {
    fn corrupt<T>(offset: usize, detail: &str) -> Result<T, Nf2Error> {
        Err(Nf2Error::Corrupt {
            offset,
            detail: detail.into(),
        })
    }
    let schema = station_schema();
    let s = Station {
        key: 7,
        name: "n".into(),
        platforms: vec![Platform {
            platform_nr: 1,
            no_line: 0,
            ticket_code: 2,
            information: "i".into(),
            connections: vec![],
        }],
        sightseeings: vec![],
    };
    let (_, layout) = encode_with_layout(&s.to_tuple(), &schema).unwrap();
    let header = layout.to_bytes();
    // A tuple: start u32, len u32, attribute count u16; an attribute:
    // start u32, len u32, tuple count u32.
    let mut attrs = header.clone();
    attrs[8..10].copy_from_slice(&u16::MAX.to_le_bytes());
    let platform = 10 + 12 * attr::PLATFORM;
    let mut tuples = header.clone();
    tuples[platform + 8..platform + 12].copy_from_slice(&1000u32.to_le_bytes());
    for proj in [Projection::All, proj_navigation(), proj_root_record()] {
        let ranges = |h: &[u8]| proj.byte_ranges_from_bytes(h);
        assert_eq!(ranges(&header[..3]), corrupt(0, "truncated layout (u32)"));
        assert_eq!(ranges(&header[..9]), corrupt(8, "truncated layout (u16)"));
        assert_eq!(
            ranges(&attrs),
            corrupt(10, "layout count 65535 exceeds the remaining bytes")
        );
        assert_eq!(
            ranges(&tuples),
            corrupt(
                platform + 12,
                "layout count 1000 exceeds the remaining bytes"
            )
        );
    }
    assert_eq!(
        TupleLayout::from_bytes(&header[..9]),
        corrupt(8, "truncated layout (u16)")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncation_is_an_error_never_a_panic(s in arb_station(), bits in any::<u64>()) {
        let schema = station_schema();
        let (bytes, _) = encode_with_layout(&s.to_tuple(), &schema).unwrap();
        let full = decode(&bytes, &schema).unwrap();
        let projs = projections(&schema, bits);
        for cut in 0..bytes.len() {
            // Only the byte-length word of a trailing empty relation goes
            // unread by a full decode.
            if let Ok(t) = decode(&bytes[..cut], &schema) {
                prop_assert!(t == full && cut + 4 >= bytes.len(), "cut={}", cut);
            }
            for proj in &projs[1..] {
                // A projected walk that never reaches the cut still answers.
                if let Ok(t) = decode_projected_at(&bytes[..cut], &schema, 0, proj) {
                    prop_assert_eq!(t, proj.apply(&full, &schema), "cut={}", cut);
                }
            }
        }
    }

    /// The in-place update's check is the full decode with nothing built:
    /// on every truncation and on random byte flips of a generated station
    /// both accept, or both refuse with the same error.
    #[test]
    fn validate_at_agrees_with_decode_tuple_at(s in arb_station(), mut bits in any::<u64>()) {
        let schema = station_schema();
        let (bytes, _) = encode_with_layout(&s.to_tuple(), &schema).unwrap();
        let check = |b: &[u8]| -> Result<(), TestCaseError> {
            prop_assert_eq!(
                validate_at(b, &schema, 0),
                decode_tuple_at(b, &schema, 0).map(drop)
            );
            Ok(())
        };
        check(&bytes)?;
        for cut in 0..bytes.len() {
            check(&bytes[..cut])?;
        }
        for _ in 0..64 {
            let mut flipped = bytes.clone();
            for _ in 0..=draw(&mut bits, 3) {
                let at = draw(&mut bits, bytes.len() as u64) as usize;
                flipped[at] ^= 1 << draw(&mut bits, 8);
            }
            check(&flipped)?;
        }
    }
}

/// `corrupt_count.rs`'s `0xFFFF_FFFF` sub-relation count: bounded before it
/// is trusted, so `validate_at` refuses it as the decode does.
#[test]
fn validate_at_refuses_a_corrupt_subrelation_count() {
    let schema = station_schema();
    let s = Station {
        key: 7,
        name: "n".repeat(100),
        platforms: vec![Platform {
            platform_nr: 1,
            no_line: 1,
            ticket_code: 2,
            information: "i".repeat(100),
            connections: vec![],
        }],
        sightseeings: vec![],
    };
    let (mut bytes, layout) = encode_with_layout(&s.to_tuple(), &schema).unwrap();
    let count = layout.attrs[attr::PLATFORM].start as usize;
    bytes[count..count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = validate_at(&bytes, &schema, 0).unwrap_err();
    assert!(matches!(err, Nf2Error::Corrupt { .. }), "{err:?}");
    assert_eq!(Err(err), decode(&bytes, &schema).map(drop));
}

/// `bytes` cut before each of `cuts` (ascending, inside it): the pieces and
/// the start of each.
fn split<'a>(bytes: &'a [u8], cuts: &[usize]) -> (Vec<&'a [u8]>, Vec<u32>) {
    let starts: Vec<usize> = std::iter::once(0).chain(cuts.iter().copied()).collect();
    let ends = starts.iter().skip(1).copied().chain([bytes.len()]);
    let pieces = starts
        .iter()
        .zip(ends)
        .map(|(&a, b)| &bytes[a..b])
        .collect();
    (pieces, starts.into_iter().map(|s| s as u32).collect())
}

/// Page splits of a `len`-byte buffer drawn from `bits`: a packed stride,
/// and the ascending cuts of an explicit plan (any byte may start a piece,
/// so values straddle cuts everywhere).
fn splits(len: usize, bits: &mut u64) -> (usize, Vec<usize>) {
    let stride = 1 + draw(bits, len as u64 + 1) as usize;
    let mut cuts: Vec<usize> = (0..draw(bits, 12))
        .filter(|_| len > 1)
        .map(|_| 1 + draw(bits, len as u64 - 1) as usize)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    (stride, cuts)
}

/// Every decoder over `bytes` and over its pages, packed by `stride` and
/// planned at `cuts`: the same tuple or the same error, and the same
/// verdict from `validate_at`.
fn paged_agrees(
    bytes: &[u8],
    schema: &RelSchema,
    projs: &[Projection],
    (stride, cuts): &(usize, Vec<usize>),
) -> Result<(), TestCaseError> {
    let packed: Vec<&[u8]> = bytes.chunks(*stride).collect();
    let (planned, starts) = split(bytes, cuts);
    for paged in [
        Paged::packed(&packed, *stride),
        Paged::planned(&planned, &starts),
    ] {
        prop_assert_eq!(
            decode_tuple_at(&paged, schema, 0),
            decode_tuple_at(bytes, schema, 0)
        );
        prop_assert_eq!(
            validate_at(&paged, schema, 0),
            validate_at(bytes, schema, 0)
        );
        for proj in projs {
            prop_assert_eq!(
                decode_projected_at(&paged, schema, 0, proj),
                decode_projected_at(bytes, schema, 0, proj)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whole, truncated and bit-flipped stations, each cut into pages every
    /// way `bits` draws: the decoders cannot tell the pages from the buffer.
    #[test]
    fn paged_sources_decode_as_the_buffer_does(s in arb_station(), mut bits in any::<u64>()) {
        let schema = station_schema();
        let (bytes, _) = encode_with_layout(&s.to_tuple(), &schema).unwrap();
        let projs = projections(&schema, bits);
        for _ in 0..4 {
            paged_agrees(&bytes, &schema, &projs, &splits(bytes.len(), &mut bits))?;
        }
        for _ in 0..8 {
            let cut = draw(&mut bits, bytes.len() as u64) as usize;
            paged_agrees(&bytes[..cut], &schema, &projs, &splits(cut, &mut bits))?;
        }
        for _ in 0..16 {
            let mut flipped = bytes.clone();
            for _ in 0..=draw(&mut bits, 3) {
                let at = draw(&mut bits, bytes.len() as u64) as usize;
                flipped[at] ^= 1 << draw(&mut bits, 8);
            }
            paged_agrees(&flipped, &schema, &projs, &splits(bytes.len(), &mut bits))?;
        }
    }

    /// The header cursor reads a layout's pages as it reads the layout:
    /// the same ranges, or an error for a truncated one.
    #[test]
    fn the_header_cursor_reads_pages_as_it_reads_the_buffer(
        s in arb_station(),
        mut bits in any::<u64>(),
    ) {
        let schema = station_schema();
        let (_, layout) = encode_with_layout(&s.to_tuple(), &schema).unwrap();
        let header = layout.to_bytes();
        for proj in projections(&schema, bits) {
            let cut = draw(&mut bits, header.len() as u64 + 1) as usize;
            let header = &header[..cut];
            let (stride, cuts) = splits(header.len(), &mut bits);
            let packed: Vec<&[u8]> = header.chunks(stride).collect();
            let (planned, starts) = split(header, &cuts);
            let expect = proj.byte_ranges_from_bytes(header);
            prop_assert_eq!(&proj.byte_ranges_from_bytes(&Paged::packed(&packed, stride)), &expect);
            prop_assert_eq!(&proj.byte_ranges_from_bytes(&Paged::planned(&planned, &starts)), &expect);
        }
    }
}

/// Tuples a decode into must leave nothing of: `other`'s station grown to
/// more platforms, connections and sightseeings than `s` has (its strings
/// longer than any drawn), shrunk to fewer, and decoded under
/// [`proj_navigation`] (placeholders where the projection drops), plus a
/// tuple one attribute too long whose every slot holds another variant.
fn leftovers(s: &Station, other: &Station) -> Vec<Tuple> {
    let schema = station_schema();
    let long = "w".repeat(40);
    let connection = Connection {
        line_nr: 1,
        key_connection: 2,
        oid_connection: Oid(3),
        departure_times: long.clone(),
    };
    let platform = Platform {
        platform_nr: 4,
        no_line: 0,
        ticket_code: 5,
        information: long.clone(),
        connections: vec![],
    };
    let sightseeing = Sightseeing {
        seeing_nr: 6,
        description: long.clone(),
        location: long.clone(),
        history: long.clone(),
        remarks: long.clone(),
    };
    let mut more = other.clone();
    more.name = long.clone();
    let most = |p: &Platform| p.connections.len();
    let connections = s.platforms.iter().map(most).max().unwrap_or(0) + 1;
    more.platforms.resize(s.platforms.len() + 1, platform);
    for p in &mut more.platforms {
        p.connections.resize(connections, connection.clone());
    }
    more.sightseeings
        .resize(s.sightseeings.len() + 1, sightseeing);
    let mut fewer = other.clone();
    fewer
        .platforms
        .truncate(s.platforms.len().saturating_sub(1));
    for p in &mut fewer.platforms {
        p.connections.truncate(1);
    }
    fewer
        .sightseeings
        .truncate(s.sightseeings.len().saturating_sub(1));
    let (other_bytes, _) = encode_with_layout(&other.to_tuple(), &schema).unwrap();
    let projected = decode_projected_at(&other_bytes, &schema, 0, &proj_navigation()).unwrap();
    let swapped = (0..=schema.arity())
        .map(|i| match i % 3 {
            0 => Value::Str(long.clone()),
            1 => Value::Rel(vec![Tuple::new(vec![Value::Int(7)])]),
            _ => Value::Int(8),
        })
        .collect();
    vec![
        more.to_tuple(),
        fewer.to_tuple(),
        projected,
        Tuple::new(swapped),
    ]
}

/// [`decode_tuple_into`] over `bytes` into a copy of each of `leftovers`:
/// `expect` — the buffer's [`decode_tuple_at`] — every time.
fn decode_into_agrees<S: ByteSource + ?Sized>(
    bytes: &S,
    leftovers: &[Tuple],
    expect: &Result<Tuple, Nf2Error>,
) -> Result<(), TestCaseError> {
    let schema = station_schema();
    for leftover in leftovers {
        let mut target = leftover.clone();
        let got = decode_tuple_into(bytes, &schema, 0, &mut target).map(|()| target);
        prop_assert_eq!(&got, expect);
    }
    Ok(())
}

/// [`decode_into_agrees`] over `bytes` and over its pages, packed and
/// planned as `bits` draws them.
fn decode_into_agrees_paged(
    bytes: &[u8],
    leftovers: &[Tuple],
    bits: &mut u64,
) -> Result<(), TestCaseError> {
    let expect = decode_tuple_at(bytes, &station_schema(), 0);
    decode_into_agrees(bytes, leftovers, &expect)?;
    let (stride, cuts) = splits(bytes.len(), bits);
    let packed: Vec<&[u8]> = bytes.chunks(stride).collect();
    let (planned, starts) = split(bytes, &cuts);
    decode_into_agrees(&Paged::packed(&packed, stride), leftovers, &expect)?;
    decode_into_agrees(&Paged::planned(&planned, &starts), leftovers, &expect)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A scan decodes every object into the tuple the one before left: on
    /// a whole station, on every cut and with every single bit flipped,
    /// over the buffer and over its pages, and into a tuple left over from
    /// a larger station, a smaller one, a projected decode and another
    /// shape, the decode into gives the fresh decode's tuple or its error.
    #[test]
    fn decode_into_a_leftover_tuple_answers_as_a_fresh_decode(
        s in arb_station(),
        other in arb_station(),
        mut bits in any::<u64>(),
    ) {
        let (bytes, _) = encode_with_layout(&s.to_tuple(), &station_schema()).unwrap();
        let leftovers = leftovers(&s, &other);
        decode_into_agrees_paged(&bytes, &leftovers, &mut bits)?;
        for cut in 0..bytes.len() {
            decode_into_agrees_paged(&bytes[..cut], &leftovers, &mut bits)?;
        }
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                decode_into_agrees_paged(&flipped, &leftovers, &mut bits)?;
            }
        }
    }
}

/// The references a station tuple decoded under [`proj_navigation`] holds.
fn refs_of(t: &Tuple) -> Vec<(Key, Oid)> {
    let rel = |v: &Value| v.as_rel().expect("a relation").to_vec();
    let mut out = Vec::new();
    for p in rel(&t.values[attr::PLATFORM]) {
        for c in rel(&p.values[attr::platform::CONNECTION]) {
            let key = c.values[attr::connection::KEY_CONNECTION].as_int();
            let oid = c.values[attr::connection::OID_CONNECTION].as_link();
            out.push((key.expect("an INT"), oid.expect("a LINK")));
        }
    }
    out
}

/// [`child_refs_at`] over `bytes` and the navigation decode over it: the
/// same references or the same error.
fn refs_agree<S: ByteSource + ?Sized>(bytes: &S) -> Result<(), TestCaseError> {
    let schema = station_schema();
    let mut refs = Vec::new();
    let walked = child_refs_at(bytes, &schema, 0, |k, o| refs.push((k, o))).map(|()| refs);
    let decoded = decode_projected_at(bytes, &schema, 0, &proj_navigation());
    prop_assert_eq!(walked, decoded.map(|t| refs_of(&t)));
    Ok(())
}

/// [`refs_agree`] over `bytes` and over its pages, packed and planned as
/// `bits` draws them.
fn refs_agree_paged(bytes: &[u8], bits: &mut u64) -> Result<(), TestCaseError> {
    refs_agree(bytes)?;
    let (stride, cuts) = splits(bytes.len(), bits);
    let packed: Vec<&[u8]> = bytes.chunks(stride).collect();
    let (planned, starts) = split(bytes, &cuts);
    refs_agree(&Paged::packed(&packed, stride))?;
    refs_agree(&Paged::planned(&planned, &starts))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Navigation reads the references where they lie: on a whole station,
    /// on every cut and with every single bit flipped, over the buffer and
    /// over its pages, the walk gives the references of the navigation
    /// decode or its error.
    #[test]
    fn the_reference_walk_answers_as_the_navigation_decode(
        s in arb_station(),
        mut bits in any::<u64>(),
    ) {
        let (bytes, _) = encode_with_layout(&s.to_tuple(), &station_schema()).unwrap();
        refs_agree_paged(&bytes, &mut bits)?;
        for cut in 0..bytes.len() {
            refs_agree_paged(&bytes[..cut], &mut bits)?;
        }
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                refs_agree_paged(&flipped, &mut bits)?;
            }
        }
    }
}
