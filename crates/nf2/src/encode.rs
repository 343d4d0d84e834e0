//! Binary encoding of NF² tuples.
//!
//! The format is deliberately DASDBS-flavoured: every (sub-)tuple carries a
//! small directory (header + attribute offset table), every sub-relation an
//! address table, so that any attribute or sub-tuple can be decoded without
//! touching unrelated bytes. The per-construct overheads are the constants in
//! [`crate::overhead`], calibrated against the paper's Table 2 (DESIGN.md §6).
//!
//! Wire format of a tuple at byte offset `P`:
//!
//! ```text
//! P+0   u16  magic (0x4E32, "N2")
//! P+2   u16  version (1)
//! P+4   u16  attribute count
//! P+6   u16  flags (0)
//! P+8   u32  total encoded length of the tuple
//! P+12  u64  reserved (0)                          -- 20-byte header
//! P+20  u32 × nattrs   attribute offsets, relative to P
//! ...   attribute values in schema order:
//!         INT   i32 (4 bytes)        LINK  u32 (4 bytes)
//!         STR   u16 length + bytes
//!         REL   u32 count, u32 byte length,        -- 8-byte subrel header
//!               u32 × count sub-tuple offsets (relative to REL start),
//!               sub-tuple encodings (recursive)
//! ```
//!
//! # Projected decoding is a directory walk
//!
//! [`decode_projected_at`] is *the* projected decoder ([`decode_projected`]
//! is the same walk started at a layout's `start`). At each tuple it enters
//! it checks magic, version and arity exactly as [`decode`] does, then reads
//! the offset-table entries of the projected attributes only; for a
//! relation-valued attribute with a sub-projection it reads the count and
//! the address table and recurses into each sub-tuple. It therefore reads
//! precisely the bytes [`Projection::byte_ranges`] names, allocates only
//! what it returns, and needs no [`TupleLayout`].
//!
//! What that validates: [`Projection::All`] decodes — and so validates —
//! every byte of the (sub-)tuple it covers. A narrower projection validates
//! the directories it enters and the values it returns, and nothing else:
//! corruption in an attribute the projection drops goes unseen, as it
//! always has on a sparse buffer where those bytes were never fetched.
//! Decode errors are built lazily (`ok_or_else`): a successful decode
//! allocates nothing but its result.
//!
//! [`validate_at`] is the full decode with nothing built: the same checks,
//! the same order, the same errors. An update that patches bytes in place
//! runs it first, so it refuses exactly the objects a decode would.

use crate::layout::{AttrLayout, TupleLayout};
use crate::path::neutral_value;
use crate::{overhead, AttrType, Nf2Error, Oid, Projection, RelSchema, Result, Tuple, Value};

const MAGIC: u16 = 0x4E32;
const VERSION: u16 = 1;

/// Computes the exact encoded length of `tuple` without encoding it.
///
/// This is the quantity the paper calls `S_tuple` (modulo the 4-byte page
/// slot entry, which the page layer accounts for).
pub fn encoded_len(tuple: &Tuple) -> usize {
    let mut n = overhead::TUPLE_HEADER + overhead::PER_ATTR * tuple.arity();
    for v in &tuple.values {
        n += value_len(v);
    }
    n
}

fn value_len(v: &Value) -> usize {
    match v {
        Value::Int(_) => 4,
        Value::Link(_) => Oid::ENCODED_LEN,
        Value::Str(s) => overhead::PER_STRING + s.len(),
        Value::Rel(ts) => {
            overhead::SUBREL_HEADER
                + ts.iter()
                    .map(|t| overhead::PER_SUBTUPLE + encoded_len(t))
                    .sum::<usize>()
        }
    }
}

/// Encodes `tuple` (validated against `schema`) into a byte vector.
pub fn encode(tuple: &Tuple, schema: &RelSchema) -> Result<Vec<u8>> {
    Ok(encode_with_layout(tuple, schema)?.0)
}

/// Encodes `tuple` and also returns its [`TupleLayout`] (the object-header
/// content the DASDBS models store on header pages).
pub fn encode_with_layout(tuple: &Tuple, schema: &RelSchema) -> Result<(Vec<u8>, TupleLayout)> {
    schema.validate(tuple)?;
    let mut out = Vec::with_capacity(encoded_len(tuple));
    let layout = encode_tuple(tuple, &mut out);
    debug_assert_eq!(out.len(), encoded_len(tuple), "encoded_len must be exact");
    Ok((out, layout))
}

fn encode_tuple(tuple: &Tuple, out: &mut Vec<u8>) -> TupleLayout {
    let start = out.len();
    let nattrs = tuple.arity();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(nattrs as u16).to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags
    out.extend_from_slice(&0u32.to_le_bytes()); // total_len, patched below
    out.extend_from_slice(&0u64.to_le_bytes()); // reserved
    let offset_table = out.len();
    out.resize(out.len() + 4 * nattrs, 0);

    let mut attrs = Vec::with_capacity(nattrs);
    for (i, v) in tuple.values.iter().enumerate() {
        let attr_start = out.len();
        let rel_off = (attr_start - start) as u32;
        out[offset_table + 4 * i..offset_table + 4 * i + 4].copy_from_slice(&rel_off.to_le_bytes());
        let tuples = encode_value(v, out);
        attrs.push(AttrLayout {
            start: attr_start as u32,
            len: (out.len() - attr_start) as u32,
            tuples,
        });
    }

    let total = (out.len() - start) as u32;
    out[start + 8..start + 12].copy_from_slice(&total.to_le_bytes());
    TupleLayout {
        start: start as u32,
        len: total,
        attrs,
    }
}

fn encode_value(v: &Value, out: &mut Vec<u8>) -> Vec<TupleLayout> {
    match v {
        Value::Int(i) => {
            out.extend_from_slice(&i.to_le_bytes());
            Vec::new()
        }
        Value::Link(oid) => {
            out.extend_from_slice(&oid.0.to_le_bytes());
            Vec::new()
        }
        Value::Str(s) => {
            debug_assert!(s.len() <= u16::MAX as usize, "string too long to encode");
            out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
            Vec::new()
        }
        Value::Rel(ts) => {
            let rel_start = out.len();
            out.extend_from_slice(&(ts.len() as u32).to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes()); // byte length, patched
            let table = out.len();
            out.resize(out.len() + 4 * ts.len(), 0);
            let mut layouts = Vec::with_capacity(ts.len());
            for (i, t) in ts.iter().enumerate() {
                let off = (out.len() - rel_start) as u32;
                out[table + 4 * i..table + 4 * i + 4].copy_from_slice(&off.to_le_bytes());
                layouts.push(encode_tuple(t, out));
            }
            let total = (out.len() - rel_start) as u32;
            out[rel_start + 4..rel_start + 8].copy_from_slice(&total.to_le_bytes());
            layouts
        }
    }
}

/// Decodes a tuple encoded at offset 0 of `bytes` against `schema`.
pub fn decode(bytes: &[u8], schema: &RelSchema) -> Result<Tuple> {
    decode_tuple_at(bytes, schema, 0)
}

/// Decodes a tuple encoded at absolute offset `start` of `bytes`.
pub fn decode_tuple_at(bytes: &[u8], schema: &RelSchema, start: usize) -> Result<Tuple> {
    check_header(bytes, schema, start)?;
    let mut values = Vec::with_capacity(schema.arity());
    for (i, def) in schema.attrs.iter().enumerate() {
        let at = directory_entry(bytes, start, i)?;
        values.push(decode_attr(bytes, &def.ty, at)?);
    }
    Ok(Tuple::new(values))
}

/// Checks the tuple encoded at absolute offset `start` of `bytes` as
/// [`decode_tuple_at`] decodes it — every check, in the same order, failing
/// with the same error — and builds nothing: `validate_at` is `Ok` exactly
/// when `decode_tuple_at` is, and allocates only for an error it returns.
///
/// This is what an in-place update runs before it patches bytes it read, so
/// a damaged object is refused wherever a full decode refused it.
pub fn validate_at(bytes: &[u8], schema: &RelSchema, start: usize) -> Result<()> {
    check_header(bytes, schema, start)?;
    for (i, def) in schema.attrs.iter().enumerate() {
        let at = directory_entry(bytes, start, i)?;
        match &def.ty {
            AttrType::Int | AttrType::Link => {
                get_u32(bytes, at)?;
            }
            AttrType::Str => {
                str_at(bytes, at)?;
            }
            AttrType::Rel(sub) => {
                for t in subtuple_offsets(bytes, at)? {
                    validate_at(bytes, sub, t?)?;
                }
            }
        }
    }
    Ok(())
}

/// Checks the header of the tuple at `start`: magic, version, and an
/// attribute count equal to `schema`'s arity — what every decoder verifies
/// of each tuple it enters before trusting that tuple's offset table.
fn check_header(bytes: &[u8], schema: &RelSchema, start: usize) -> Result<()> {
    let magic = get_u16(bytes, start)?;
    if magic != MAGIC {
        return Err(Nf2Error::Corrupt {
            offset: start,
            detail: format!("bad magic {magic:#06x}"),
        });
    }
    let version = get_u16(bytes, start + 2)?;
    if version != VERSION {
        return Err(Nf2Error::Corrupt {
            offset: start + 2,
            detail: format!("unsupported version {version}"),
        });
    }
    let nattrs = get_u16(bytes, start + 4)? as usize;
    if nattrs != schema.arity() {
        return Err(Nf2Error::SchemaMismatch {
            detail: format!(
                "relation {}: encoded arity {nattrs} != schema arity {}",
                schema.name,
                schema.arity()
            ),
        });
    }
    Ok(())
}

/// Absolute offset of attribute `attr` of the tuple at `start`, read from
/// the tuple's offset table. The caller has checked `attr` against the
/// tuple's arity.
fn directory_entry(bytes: &[u8], start: usize, attr: usize) -> Result<usize> {
    let rel = get_u32(
        bytes,
        start + overhead::TUPLE_HEADER + overhead::PER_ATTR * attr,
    )?;
    Ok(start.saturating_add(rel as usize))
}

/// Absolute offset of attribute `attr` of the tuple encoded at `start`,
/// read from the tuple's own directory — the address at which
/// [`decode_attr`] decodes that attribute without touching any other.
///
/// Only the attribute count is consulted (an `attr` beyond it is
/// [`Nf2Error::BadProjection`]); magic and version are the business of the
/// decoders that take a schema.
pub fn attr_offset(bytes: &[u8], start: usize, attr: usize) -> Result<usize> {
    let nattrs = get_u16(bytes, start.saturating_add(4))? as usize;
    if attr >= nattrs {
        return Err(Nf2Error::BadProjection {
            attr,
            available: nattrs,
        });
    }
    directory_entry(bytes, start, attr)
}

/// Decodes a single attribute value of type `ty` at absolute offset `start`.
///
/// This is the primitive of *partial* object reads: at the offset the
/// tuple's directory gives (see [`attr_offset`]), any attribute can be
/// decoded without touching (or having fetched) the rest of the object.
pub fn decode_attr(bytes: &[u8], ty: &AttrType, start: usize) -> Result<Value> {
    match ty {
        AttrType::Int => Ok(Value::Int(get_u32(bytes, start)? as i32)),
        AttrType::Link => Ok(Value::Link(Oid(get_u32(bytes, start)?))),
        AttrType::Str => Ok(Value::Str(str_at(bytes, start)?.to_owned())),
        AttrType::Rel(sub) => decode_rel(bytes, start, |at| decode_tuple_at(bytes, sub, at)),
    }
}

/// The `STR` value encoded at absolute offset `start` (length prefix, then
/// UTF-8 bytes), borrowed from `bytes`: what [`decode_attr`] decodes there,
/// with the same checks and errors, without copying it.
// A full decode runs this for every string it returns; left to the inliner
// it stays a call and `nf2/decode_full` (`micro_nf2`) reads ≈ 20 % slower.
#[inline(always)]
pub fn str_at(bytes: &[u8], start: usize) -> Result<&str> {
    let len = get_u16(bytes, start)? as usize;
    let s = get(bytes, start.saturating_add(overhead::PER_STRING), len).ok_or_else(|| {
        Nf2Error::Corrupt {
            offset: start,
            detail: format!("string of length {len} truncated"),
        }
    })?;
    std::str::from_utf8(s).map_err(|e| Nf2Error::Corrupt {
        offset: start + overhead::PER_STRING,
        detail: format!("invalid utf-8: {e}"),
    })
}

/// Absolute offsets of the sub-tuples of the sub-relation at `start`, read
/// from its address table. The count comes straight from the bytes, so it
/// is bounded by the address-table entries the buffer can still hold before
/// anything trusts it — in particular before a caller reserves for it.
fn subtuple_offsets(
    bytes: &[u8],
    start: usize,
) -> Result<impl ExactSizeIterator<Item = Result<usize>> + '_> {
    let count = get_u32(bytes, start)? as usize;
    let table = start.saturating_add(overhead::SUBREL_HEADER);
    if count > bytes.len().saturating_sub(table) / overhead::PER_SUBTUPLE {
        return Err(Nf2Error::Corrupt {
            offset: start,
            detail: format!("sub-relation of {count} tuples truncated"),
        });
    }
    Ok((0..count).map(move |i| {
        let off = get_u32(bytes, table + overhead::PER_SUBTUPLE * i)? as usize;
        Ok(start.saturating_add(off))
    }))
}

/// Decodes the sub-relation at `start`: each sub-tuple through `tuple_at`
/// at the offset the address table gives.
fn decode_rel(
    bytes: &[u8],
    start: usize,
    mut tuple_at: impl FnMut(usize) -> Result<Tuple>,
) -> Result<Value> {
    let offsets = subtuple_offsets(bytes, start)?;
    let mut ts = Vec::with_capacity(offsets.len());
    for at in offsets {
        ts.push(tuple_at(at?)?);
    }
    Ok(Value::Rel(ts))
}

/// Decodes only the projected parts of the object whose encoding starts at
/// `layout.start` — [`decode_projected_at`] for callers that hold the
/// object's [`TupleLayout`].
pub fn decode_projected(
    bytes: &[u8],
    schema: &RelSchema,
    layout: &TupleLayout,
    projection: &Projection,
) -> Result<Tuple> {
    decode_projected_at(bytes, schema, layout.start as usize, projection)
}

/// Decodes only the projected parts of the tuple encoded at absolute offset
/// `start`, by walking the encoding's own directory.
///
/// `bytes` must contain valid data at least in the byte ranges
/// [`Projection::byte_ranges`] gives for the object — everything else may
/// be unfetched (zero-filled) without affecting the result. Unprojected
/// attributes are filled with neutral placeholders, as in
/// [`Projection::apply`]. See the `encode` module docs for what a projected
/// read validates.
pub fn decode_projected_at(
    bytes: &[u8],
    schema: &RelSchema,
    start: usize,
    projection: &Projection,
) -> Result<Tuple> {
    let Projection::Attrs(attrs) = projection else {
        return decode_tuple_at(bytes, schema, start);
    };
    check_header(bytes, schema, start)?;
    let mut values: Vec<Value> = schema.attrs.iter().map(|a| neutral_value(&a.ty)).collect();
    for (i, sub) in attrs {
        let def = schema
            .attrs
            .get(*i)
            .ok_or_else(|| Nf2Error::BadProjection {
                attr: *i,
                available: schema.arity(),
            })?;
        let at = directory_entry(bytes, start, *i)?;
        values[*i] = match &def.ty {
            AttrType::Rel(s) if !sub.is_all() => {
                decode_rel(bytes, at, |t| decode_projected_at(bytes, s, t, sub))?
            }
            ty => decode_attr(bytes, ty, at)?,
        };
    }
    Ok(Tuple::new(values))
}

/// `len` bytes at `at`, or `None` past the end of `bytes`.
fn get(bytes: &[u8], at: usize, len: usize) -> Option<&[u8]> {
    bytes.get(at..at.checked_add(len)?)
}

fn get_u16(bytes: &[u8], at: usize) -> Result<u16> {
    get(bytes, at, 2)
        .map(|s| u16::from_le_bytes(s.try_into().expect("2-byte slice")))
        .ok_or_else(|| Nf2Error::Corrupt {
            offset: at,
            detail: "truncated (u16)".into(),
        })
}

fn get_u32(bytes: &[u8], at: usize) -> Result<u32> {
    get(bytes, at, 4)
        .map(|s| u32::from_le_bytes(s.try_into().expect("4-byte slice")))
        .ok_or_else(|| Nf2Error::Corrupt {
            offset: at,
            detail: "truncated (u32)".into(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrDef;

    fn schema() -> RelSchema {
        RelSchema::new(
            "R",
            vec![
                AttrDef::new("a", AttrType::Int),
                AttrDef::new("b", AttrType::Str),
                AttrDef::new(
                    "c",
                    AttrType::Rel(Box::new(RelSchema::new(
                        "S",
                        vec![
                            AttrDef::new("x", AttrType::Link),
                            AttrDef::new("y", AttrType::Str),
                        ],
                    ))),
                ),
            ],
        )
    }

    fn tuple() -> Tuple {
        Tuple::new(vec![
            Value::Int(-5),
            Value::Str("hello world".into()),
            Value::Rel(vec![
                Tuple::new(vec![Value::Link(Oid(42)), Value::Str("α-β".into())]),
                Tuple::new(vec![Value::Link(Oid(7)), Value::Str(String::new())]),
            ]),
        ])
    }

    #[test]
    fn roundtrip() {
        let t = tuple();
        let bytes = encode(&t, &schema()).unwrap();
        assert_eq!(bytes.len(), encoded_len(&t));
        assert_eq!(decode(&bytes, &schema()).unwrap(), t);
    }

    #[test]
    fn roundtrip_empty_subrelation() {
        let t = Tuple::new(vec![
            Value::Int(1),
            Value::Str("s".into()),
            Value::Rel(vec![]),
        ]);
        let bytes = encode(&t, &schema()).unwrap();
        assert_eq!(decode(&bytes, &schema()).unwrap(), t);
    }

    #[test]
    fn encoded_len_matches_overhead_model() {
        // INT(4) + STR(2+11) + REL(8 + 2*(4 + subtuple)) with
        // subtuple = 20 + 2*4 + LINK(4) + STR(2+n)
        let t = tuple();
        let sub0 = 20 + 8 + 4 + 2 + "α-β".len();
        let sub1 = 20 + 8 + 4 + 2;
        let expect = 20 + 3 * 4 + 4 + (2 + 11) + (8 + (4 + sub0) + (4 + sub1));
        assert_eq!(encoded_len(&t), expect);
    }

    #[test]
    fn layout_matches_encoding() {
        let t = tuple();
        let (bytes, layout) = encode_with_layout(&t, &schema()).unwrap();
        assert_eq!(layout.start, 0);
        assert_eq!(layout.len as usize, bytes.len());
        assert_eq!(layout.attrs.len(), 3);
        // Attribute ranges tile the non-header region exactly.
        assert_eq!(layout.header_range().end, layout.attrs[0].start);
        assert_eq!(layout.attrs[0].range().end, layout.attrs[1].start);
        assert_eq!(layout.attrs[1].range().end, layout.attrs[2].start);
        assert_eq!(layout.attrs[2].range().end as usize, bytes.len());
        // Each attribute decodes independently at its layout offset.
        let v = decode_attr(&bytes, &AttrType::Int, layout.attrs[0].start as usize).unwrap();
        assert_eq!(v, Value::Int(-5));
        let v = decode_attr(&bytes, &AttrType::Str, layout.attrs[1].start as usize).unwrap();
        assert_eq!(v, Value::Str("hello world".into()));
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = encode(&tuple(), &schema()).unwrap();
        bytes[0] = 0xFF;
        assert!(matches!(
            decode(&bytes, &schema()),
            Err(Nf2Error::Corrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn decode_rejects_arity_mismatch() {
        let bytes = encode(&tuple(), &schema()).unwrap();
        let flat = RelSchema::new("F", vec![AttrDef::new("a", AttrType::Int)]);
        assert!(matches!(
            decode(&bytes, &flat),
            Err(Nf2Error::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode(&tuple(), &schema()).unwrap();
        for cut in [3, 10, 25, bytes.len() - 1] {
            assert!(decode(&bytes[..cut], &schema()).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn decode_projected_ignores_unfetched_ranges() {
        let t = tuple();
        let s = schema();
        let (bytes, layout) = encode_with_layout(&t, &s).unwrap();
        // Project only attr 0 and the links inside attr 2.
        let p = Projection::Attrs(vec![
            (0, Projection::All),
            (2, Projection::Attrs(vec![(0, Projection::All)])),
        ]);
        // Zero out everything the projection does not need.
        let needed = p.byte_ranges(&layout);
        let mut sparse = vec![0u8; bytes.len()];
        for r in &needed {
            sparse[r.start as usize..r.end as usize]
                .copy_from_slice(&bytes[r.start as usize..r.end as usize]);
        }
        let out = decode_projected(&sparse, &s, &layout, &p).unwrap();
        assert_eq!(out.attr(0).unwrap().as_int(), Some(-5));
        let sub = out.attr(2).unwrap().as_rel().unwrap();
        assert_eq!(sub[0].attr(0).unwrap().as_link(), Some(Oid(42)));
        assert_eq!(sub[1].attr(0).unwrap().as_link(), Some(Oid(7)));
        // Unprojected attrs are placeholders.
        assert_eq!(out.attr(1).unwrap().as_str(), Some(""));
        assert_eq!(sub[0].attr(1).unwrap().as_str(), Some(""));
    }

    #[test]
    fn decode_projected_full_equals_decode() {
        let t = tuple();
        let s = schema();
        let (bytes, layout) = encode_with_layout(&t, &s).unwrap();
        let out = decode_projected(&bytes, &s, &layout, &Projection::All).unwrap();
        assert_eq!(out, t);
    }
}
