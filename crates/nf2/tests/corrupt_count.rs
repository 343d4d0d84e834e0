//! A count taken from the bytes must never size a reservation.
//!
//! Before the counts were bounded, overwriting a sub-relation's tuple count
//! (or a serialized layout's attribute/tuple count) with `0xFFFF_FFFF` made
//! `Vec::with_capacity` abort the process instead of returning
//! [`Nf2Error::Corrupt`]. An abort cannot be caught, which is why these
//! cases live in a test binary of their own.

use starfish_nf2::station::{
    attr, proj_navigation, station_schema, Connection, Platform, Sightseeing, Station,
};
use starfish_nf2::{
    decode, decode_projected_at, encode_with_layout, Nf2Error, Oid, Projection, TupleLayout,
};

fn station() -> Station {
    Station {
        key: 7,
        name: "n".repeat(100),
        platforms: vec![Platform {
            platform_nr: 1,
            no_line: 1,
            ticket_code: 2,
            information: "i".repeat(100),
            connections: vec![Connection {
                line_nr: 3,
                key_connection: 8,
                oid_connection: Oid(8),
                departure_times: "t".repeat(100),
            }],
        }],
        sightseeings: vec![Sightseeing {
            seeing_nr: 1,
            description: "d".repeat(100),
            location: "l".repeat(100),
            history: "h".repeat(100),
            remarks: "r".repeat(100),
        }],
    }
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

#[test]
fn corrupt_subrelation_count_is_an_error_not_an_abort() {
    let schema = station_schema();
    let (mut bytes, layout) = encode_with_layout(&station().to_tuple(), &schema).unwrap();
    // The sub-relation's tuple count is the first u32 of the attribute.
    put_u32(
        &mut bytes,
        layout.attrs[attr::PLATFORM].start as usize,
        u32::MAX,
    );
    assert!(matches!(
        decode(&bytes, &schema),
        Err(Nf2Error::Corrupt { .. })
    ));
    assert!(matches!(
        decode_projected_at(&bytes, &schema, 0, &proj_navigation()),
        Err(Nf2Error::Corrupt { .. })
    ));
    // One more tuple than the buffer can hold an address-table entry for.
    let fits = (bytes.len() - layout.attrs[attr::SIGHTSEEING].start as usize - 8) / 4;
    put_u32(
        &mut bytes,
        layout.attrs[attr::SIGHTSEEING].start as usize,
        fits as u32 + 1,
    );
    let seeing = Projection::Attrs(vec![(attr::SIGHTSEEING, Projection::All)]);
    assert!(matches!(
        decode_projected_at(&bytes, &schema, 0, &seeing),
        Err(Nf2Error::Corrupt { .. })
    ));
}

#[test]
fn corrupt_layout_counts_are_errors_not_aborts() {
    let (_, layout) = encode_with_layout(&station().to_tuple(), &station_schema()).unwrap();
    let good = layout.to_bytes();
    // Serialized tuple: start u32, len u32, attribute count u16; then per
    // attribute start u32, len u32, tuple count u32.
    let mut attrs = good.clone();
    attrs[8..10].copy_from_slice(&u16::MAX.to_le_bytes());
    let mut tuples = good.clone();
    put_u32(&mut tuples, 10 + 8, u32::MAX);
    for bad in [attrs, tuples] {
        assert!(matches!(
            TupleLayout::from_bytes(&bad),
            Err(Nf2Error::Corrupt { .. })
        ));
        for proj in [Projection::All, proj_navigation()] {
            assert!(matches!(
                proj.byte_ranges_from_bytes(&bad),
                Err(Nf2Error::Corrupt { .. })
            ));
        }
    }
}
