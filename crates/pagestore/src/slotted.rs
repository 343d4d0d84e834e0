//! Slotted-page record layout.
//!
//! A slotted page keeps small records together with a slot table so records
//! can be addressed stably by `(page, slot)` (a RID). Layout within the
//! 2048-byte page:
//!
//! ```text
//! [0 .. 36)        page header (magic, kind, slot count, free-space info)
//! [36 .. 36+4*n)   slot table, 4 bytes per slot: record offset u16, len u16
//! [hi .. 2048)     record bodies, growing downward from the page end
//! ```
//!
//! The content budget is [`EFFECTIVE_PAGE_SIZE`] = 2012 bytes; a record of
//! `L` bytes consumes `L + 4` of it (body + slot entry). This reproduces the
//! paper's tuples-per-page figure `k = ⌊2012 / S_tuple⌋` with `S_tuple`
//! including the slot entry (Table 2; DESIGN.md §6).
//!
//! Pages are **append-only**: a record is inserted once, at bulk load, and
//! afterwards only read or overwritten with a same-sized body. That is the
//! paper's benchmark — "the object structure is not changed" (§2.2) — so
//! there is no deletion, no tombstone and no compaction, slot `s` of a page
//! with `n` slots exists exactly when `s < n`, and a scan visits slots
//! `0..n` in order.
//!
//! All functions operate on raw page buffers so they can be used inside
//! [`crate::PageCache::with_page`]/[`with_page_mut`](crate::PageCache::with_page_mut)
//! closures.

use crate::{
    Result, StoreError, EFFECTIVE_PAGE_SIZE, PAGE_HEADER_SIZE, PAGE_SIZE, SLOT_ENTRY_SIZE,
};

const MAGIC: u16 = 0x5350; // "SP"
const OFF_MAGIC: usize = 0;
const OFF_KIND: usize = 2;
const OFF_NSLOTS: usize = 4;
const OFF_CONTENT_USED: usize = 6;
const OFF_RECORD_LOW: usize = 8;

/// Page kind tag stored in the page header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PageKind {
    /// Slotted page holding small records.
    Slotted = 1,
    /// Header page of a spanned (large-object) record.
    SpannedHeader = 2,
    /// Data page of a spanned record.
    SpannedData = 3,
}

/// Initializes `page` as an empty slotted page.
pub fn init(page: &mut [u8; PAGE_SIZE]) {
    page.fill(0);
    put_u16(page, OFF_MAGIC, MAGIC);
    page[OFF_KIND] = PageKind::Slotted as u8;
    put_u16(page, OFF_NSLOTS, 0);
    put_u16(page, OFF_CONTENT_USED, 0);
    put_u16(page, OFF_RECORD_LOW, PAGE_SIZE as u16);
}

/// Number of records on the page; their slots are `0..slot_count`.
pub fn slot_count(page: &[u8; PAGE_SIZE]) -> u16 {
    get_u16(page, OFF_NSLOTS)
}

/// Content bytes used: Σ over records of (body + slot entry).
pub fn content_used(page: &[u8; PAGE_SIZE]) -> usize {
    get_u16(page, OFF_CONTENT_USED) as usize
}

/// Content bytes still available for new records (body + slot entry).
pub fn free_content_bytes(page: &[u8; PAGE_SIZE]) -> usize {
    EFFECTIVE_PAGE_SIZE - content_used(page)
}

/// True if a record of `len` body bytes fits on the page.
pub fn fits(page: &[u8; PAGE_SIZE], len: usize) -> bool {
    len + SLOT_ENTRY_SIZE <= free_content_bytes(page)
}

/// Appends a record in a new slot, returning its slot id.
///
/// Fails with [`StoreError::RecordTooLarge`] if the content budget is
/// exceeded. Pages are append-only, so the content budget is the physical
/// layout: the bodies end where the slot table does, and a record that
/// fits the budget fits between them.
pub fn insert(page: &mut [u8; PAGE_SIZE], rec: &[u8]) -> Result<u16> {
    if !fits(page, rec.len()) {
        return Err(StoreError::RecordTooLarge {
            len: rec.len(),
            available: free_content_bytes(page).saturating_sub(SLOT_ENTRY_SIZE),
        });
    }
    let slot = slot_count(page);
    let off = get_u16(page, OFF_RECORD_LOW) as usize - rec.len();
    debug_assert!(off >= PAGE_HEADER_SIZE + SLOT_ENTRY_SIZE * (slot as usize + 1));
    page[off..off + rec.len()].copy_from_slice(rec);
    put_u16(page, OFF_RECORD_LOW, off as u16);
    set_slot_entry(page, slot, off as u16, rec.len() as u16);
    put_u16(page, OFF_NSLOTS, slot + 1);
    let used = (content_used(page) + rec.len() + SLOT_ENTRY_SIZE) as u16;
    put_u16(page, OFF_CONTENT_USED, used);
    Ok(slot)
}

/// Reads the record in `slot`, passing its bytes to `f`.
pub fn read<R>(page: &[u8; PAGE_SIZE], slot: u16, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
    let (off, len) = slot_entry(page, slot)?;
    Ok(f(&page[off as usize..off as usize + len as usize]))
}

/// Overwrites the record in `slot` with a same-sized body.
pub fn update_in_place(page: &mut [u8; PAGE_SIZE], slot: u16, rec: &[u8]) -> Result<()> {
    let (off, len) = slot_entry(page, slot)?;
    if rec.len() != len as usize {
        return Err(StoreError::SizeChanged {
            old: len as usize,
            new: rec.len(),
        });
    }
    page[off as usize..off as usize + rec.len()].copy_from_slice(rec);
    Ok(())
}

// ----- header/slot primitives ----------------------------------------------

fn slot_entry(page: &[u8; PAGE_SIZE], slot: u16) -> Result<(u16, u16)> {
    if slot >= slot_count(page) {
        return Err(StoreError::BadSlot { slot });
    }
    let base = PAGE_HEADER_SIZE + SLOT_ENTRY_SIZE * slot as usize;
    Ok((get_u16(page, base), get_u16(page, base + 2)))
}

fn set_slot_entry(page: &mut [u8; PAGE_SIZE], slot: u16, off: u16, len: u16) {
    let base = PAGE_HEADER_SIZE + SLOT_ENTRY_SIZE * slot as usize;
    put_u16(page, base, off);
    put_u16(page, base + 2, len);
}

fn get_u16(page: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([page[at], page[at + 1]])
}

fn put_u16(page: &mut [u8], at: usize, v: u16) {
    page[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// Writes the page-kind tag (used by the spanned store for its pages).
pub fn set_kind(page: &mut [u8; PAGE_SIZE], kind: PageKind) {
    put_u16(page, OFF_MAGIC, MAGIC);
    page[OFF_KIND] = kind as u8;
}

/// Reads the page-kind tag, if the page carries the magic.
pub fn kind(page: &[u8; PAGE_SIZE]) -> Option<PageKind> {
    if get_u16(page, OFF_MAGIC) != MAGIC {
        return None;
    }
    match page[OFF_KIND] {
        1 => Some(PageKind::Slotted),
        2 => Some(PageKind::SpannedHeader),
        3 => Some(PageKind::SpannedData),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Box<[u8; PAGE_SIZE]> {
        let mut p = Box::new([0u8; PAGE_SIZE]);
        init(&mut p);
        p
    }

    #[test]
    fn init_and_empty_state() {
        let p = fresh();
        assert_eq!(kind(&p), Some(PageKind::Slotted));
        assert_eq!(slot_count(&p), 0);
        assert_eq!(free_content_bytes(&p), EFFECTIVE_PAGE_SIZE);
    }

    #[test]
    fn insert_read_roundtrip() {
        let mut p = fresh();
        let s0 = insert(&mut p, b"hello").unwrap();
        let s1 = insert(&mut p, b"world!").unwrap();
        assert_eq!((s0, s1), (0, 1));
        read(&p, s0, |b| assert_eq!(b, b"hello")).unwrap();
        read(&p, s1, |b| assert_eq!(b, b"world!")).unwrap();
        assert_eq!(content_used(&p), 5 + 6 + 2 * SLOT_ENTRY_SIZE);
    }

    #[test]
    fn k_records_per_page_matches_table2() {
        // NSM-Connection: S_tuple = 170 (166-byte body + 4-byte slot) ⇒ k = 11.
        let mut p = fresh();
        let body = vec![0xABu8; 166];
        let mut n = 0;
        while fits(&p, body.len()) {
            insert(&mut p, &body).unwrap();
            n += 1;
        }
        assert_eq!(n, 11, "⌊2012/170⌋ = 11 connection tuples per page");
        // NSM-Station: S_tuple = 154 (150 + 4) ⇒ k = 13.
        let mut p = fresh();
        let body = vec![0xCDu8; 150];
        let mut n = 0;
        while fits(&p, body.len()) {
            insert(&mut p, &body).unwrap();
            n += 1;
        }
        assert_eq!(n, 13, "⌊2012/154⌋ = 13 station tuples per page");
    }

    #[test]
    fn rejects_oversized() {
        let mut p = fresh();
        let too_big = vec![0u8; EFFECTIVE_PAGE_SIZE - SLOT_ENTRY_SIZE + 1];
        assert!(matches!(
            insert(&mut p, &too_big),
            Err(StoreError::RecordTooLarge { .. })
        ));
        // Exactly fitting is fine.
        let fits_exactly = vec![0u8; EFFECTIVE_PAGE_SIZE - SLOT_ENTRY_SIZE];
        insert(&mut p, &fits_exactly).unwrap();
        assert_eq!(free_content_bytes(&p), 0);
    }

    #[test]
    fn update_in_place_same_size_only() {
        let mut p = fresh();
        let s = insert(&mut p, b"aaaa").unwrap();
        update_in_place(&mut p, s, b"bbbb").unwrap();
        read(&p, s, |b| assert_eq!(b, b"bbbb")).unwrap();
        assert!(matches!(
            update_in_place(&mut p, s, b"ccc"),
            Err(StoreError::SizeChanged { old: 4, new: 3 })
        ));
    }

    #[test]
    fn bad_slot_errors() {
        let p = fresh();
        assert!(matches!(
            read(&p, 0, |_| ()),
            Err(StoreError::BadSlot { slot: 0 })
        ));
        let mut p = fresh();
        insert(&mut p, b"one").unwrap();
        assert!(matches!(
            update_in_place(&mut p, 1, b"two"),
            Err(StoreError::BadSlot { slot: 1 })
        ));
    }

    #[test]
    fn kind_tagging() {
        let mut p = fresh();
        assert_eq!(kind(&p), Some(PageKind::Slotted));
        set_kind(&mut p, PageKind::SpannedData);
        assert_eq!(kind(&p), Some(PageKind::SpannedData));
        assert_ne!(kind(&p), Some(PageKind::Slotted));
        let z = [0u8; PAGE_SIZE];
        assert_eq!(kind(&z), None);
    }
}
