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
//! same tuple or same error, truncated and corrupted input included.

use proptest::prelude::*;
use starfish_nf2::station::{
    attr, proj_navigation, proj_root_record, station_schema, Connection, Platform, Sightseeing,
    Station,
};
use starfish_nf2::{
    decode, decode_projected, decode_projected_at, decode_tuple_at, encode_with_layout,
    validate_at, AttrType, Nf2Error, Oid, Paged, Projection, RelSchema, TupleLayout,
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
