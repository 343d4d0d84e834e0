//! Pluggable buffer-replacement policies.
//!
//! The paper's measurements all ran behind one 1200-page LRU buffer (§5.1);
//! which *policy* that buffer runs is an evaluation axis the paper left on
//! the table. This module factors the choice out of [`crate::BufferPool`]
//! behind [`ReplacementPolicy`], a trait over **frame slots** (dense
//! indices, not page ids), and ships five classic policies:
//!
//! | Policy | Victim | Hot-path cost |
//! |--------|--------|---------------|
//! | [`PolicyKind::Lru`] | least recently used | O(1) intrusive doubly-linked list |
//! | [`PolicyKind::Clock`] | second-chance sweep | O(1) amortized ring walk |
//! | [`PolicyKind::Mru`] | most recently used | O(1) intrusive doubly-linked list |
//! | [`PolicyKind::Fifo`] | oldest resident | O(1) queue (accesses are free) |
//! | [`PolicyKind::Lru2`] | oldest penultimate access (LRU-K, K=2) | O(1) access, O(n) victim scan |
//!
//! A policy only *orders* frames; the pool decides when to evict and which
//! frames are evictable (pinned frames never are). Policies must therefore
//! honour the pool's evictability filter and must find an evictable frame
//! whenever one exists — the property battery in
//! `tests/prop_buffer_policies.rs` checks exactly that.
//!
//! All five policies see the identical access stream (fix accounting is in
//! the pool, not the policy), so query *results* can never depend on the
//! policy — only physical reads and writes can. `tests/`'s cross-policy
//! differential test pins that down.

use std::str::FromStr;

/// Sentinel for "no slot" in the intrusive lists.
const NIL: usize = usize::MAX;

/// Which replacement policy a [`crate::BufferPool`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used (the paper's §5.1 buffer; the default).
    #[default]
    Lru,
    /// Clock / second-chance: a referenced bit per frame, swept circularly.
    Clock,
    /// Most-recently-used: evicts the hottest frame — optimal for cyclic
    /// scans larger than the buffer, pathological for skewed reuse.
    Mru,
    /// First-in-first-out: eviction order is residency order; accesses do
    /// not rejuvenate a frame.
    Fifo,
    /// LRU-2 (LRU-K with K = 2): evicts the frame whose *penultimate*
    /// access is oldest, so single-touch scan pages drain before the
    /// re-referenced working set.
    Lru2,
}

impl PolicyKind {
    /// All shipped policies, LRU (the paper's baseline) first.
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::Lru,
            PolicyKind::Clock,
            PolicyKind::Mru,
            PolicyKind::Fifo,
            PolicyKind::Lru2,
        ]
    }

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Clock => "CLOCK",
            PolicyKind::Mru => "MRU",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Lru2 => "LRU-2",
        }
    }

    /// Builds a fresh policy instance.
    pub fn build(self) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => {
                ListPolicy::boxed(self, SlotList::move_to_front, SlotList::first_from_tail)
            }
            PolicyKind::Mru => {
                ListPolicy::boxed(self, SlotList::move_to_front, SlotList::first_from_head)
            }
            PolicyKind::Fifo => ListPolicy::boxed(self, |_, _| {}, SlotList::first_from_tail),
            PolicyKind::Clock => Box::new(ClockPolicy::new()),
            PolicyKind::Lru2 => Box::new(Lru2Policy::new()),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Ok(PolicyKind::Lru),
            "clock" | "second-chance" => Ok(PolicyKind::Clock),
            "mru" => Ok(PolicyKind::Mru),
            "fifo" => Ok(PolicyKind::Fifo),
            "lru2" | "lru-2" | "lru_2" => Ok(PolicyKind::Lru2),
            other => Err(format!(
                "unknown replacement policy '{other}' (expected one of: lru, clock, mru, fifo, lru2)"
            )),
        }
    }
}

/// Replacement bookkeeping over buffer-frame slots.
///
/// The pool guarantees the protocol: `on_insert(s)` for a slot not currently
/// tracked, `on_access(s)` / `on_remove(s)` only for tracked slots, and
/// `victim` only between complete operations. `victim` must return a
/// tracked slot accepted by `evictable`, or `None` only when no tracked
/// slot is evictable; it must **not** untrack the slot (the pool follows up
/// with `on_remove`).
///
/// Policies are `Send` so a [`crate::SharedBufferPool`] shard (one policy
/// instance behind a mutex) can be shared across client threads.
pub trait ReplacementPolicy: Send {
    /// Which policy this is.
    fn kind(&self) -> PolicyKind;

    /// A page entered the cache in `slot`.
    fn on_insert(&mut self, slot: usize);

    /// The cached page in `slot` was accessed (fix hit or prefetch touch).
    fn on_access(&mut self, slot: usize);

    /// The page in `slot` left the cache (eviction or cache clear).
    fn on_remove(&mut self, slot: usize);

    /// Chooses an eviction victim among tracked slots for which
    /// `evictable` returns true.
    fn victim(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize>;

    /// Number of tracked slots (for integrity checks).
    fn len(&self) -> usize;

    /// True when no slots are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An intrusive doubly-linked list over slot indices, stored as two dense
/// `Vec<usize>`s — the O(1) engine behind LRU, MRU and FIFO. The head end
/// is "most recent"; the tail end "least recent".
#[derive(Debug)]
struct SlotList {
    prev: Vec<usize>,
    next: Vec<usize>,
    head: usize,
    tail: usize,
    len: usize,
}

impl SlotList {
    fn new() -> SlotList {
        SlotList {
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn ensure(&mut self, slot: usize) {
        if slot >= self.prev.len() {
            self.prev.resize(slot + 1, NIL);
            self.next.resize(slot + 1, NIL);
        }
    }

    /// Links `slot` at the head (most-recent end).
    fn push_front(&mut self, slot: usize) {
        self.ensure(slot);
        debug_assert!(!self.contains(slot), "slot {slot} already linked");
        self.prev[slot] = NIL;
        self.next[slot] = self.head;
        if self.head != NIL {
            self.prev[self.head] = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
        self.len += 1;
    }

    /// Unlinks `slot` from wherever it is. O(1).
    fn unlink(&mut self, slot: usize) {
        debug_assert!(self.contains(slot), "unlink of unlinked slot {slot}");
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.len -= 1;
    }

    /// Moves `slot` to the head. O(1).
    fn move_to_front(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    /// True if `slot` is currently linked (head membership disambiguates
    /// the all-NIL single-element case).
    fn contains(&self, slot: usize) -> bool {
        slot < self.prev.len()
            && (self.prev[slot] != NIL || self.next[slot] != NIL || self.head == slot)
    }

    /// Walks from the tail toward the head, returning the first slot
    /// `accept` takes.
    fn first_from_tail(&self, accept: &dyn Fn(usize) -> bool) -> Option<usize> {
        let mut s = self.tail;
        while s != NIL {
            if accept(s) {
                return Some(s);
            }
            s = self.prev[s];
        }
        None
    }

    /// Walks from the head toward the tail, returning the first slot
    /// `accept` takes.
    fn first_from_head(&self, accept: &dyn Fn(usize) -> bool) -> Option<usize> {
        let mut s = self.head;
        while s != NIL {
            if accept(s) {
                return Some(s);
            }
            s = self.next[s];
        }
        None
    }
}

/// The list-backed policies — LRU, MRU and FIFO — as one type: every page
/// enters at the head and leaves by an O(1) unlink; the two things they
/// differ in are chosen once, at construction ([`PolicyKind::build`]), and
/// stored as functions.
///
/// | | an access | the victim search starts at |
/// |---|---|---|
/// | LRU | moves the slot to the head | the tail |
/// | MRU | moves the slot to the head | the head |
/// | FIFO | does nothing | the tail |
///
/// LRU is the paper's buffer: a fix hit is three pointer swaps over two
/// flat `usize` arrays, and the eviction order is the tick ordering of the
/// seed's `BTreeMap<tick, PageId>`, which `tests/golden_lru.rs` proves
/// counter-for-counter. MRU is the classic counter-policy for loops
/// slightly larger than the buffer, where LRU evicts every page just before
/// its reuse; under FIFO an access never rejuvenates.
struct ListPolicy {
    kind: PolicyKind,
    list: SlotList,
    touch: Touch,
    pick: Pick,
}

/// What an access does to a linked slot.
type Touch = fn(&mut SlotList, usize);
/// Which end the victim search walks from.
type Pick = fn(&SlotList, &dyn Fn(usize) -> bool) -> Option<usize>;

impl ListPolicy {
    fn boxed(kind: PolicyKind, touch: Touch, pick: Pick) -> Box<dyn ReplacementPolicy> {
        Box::new(ListPolicy {
            kind,
            list: SlotList::new(),
            touch,
            pick,
        })
    }
}

impl ReplacementPolicy for ListPolicy {
    fn kind(&self) -> PolicyKind {
        self.kind
    }

    fn on_insert(&mut self, slot: usize) {
        self.list.push_front(slot);
    }

    fn on_access(&mut self, slot: usize) {
        (self.touch)(&mut self.list, slot);
    }

    fn on_remove(&mut self, slot: usize) {
        self.list.unlink(slot);
    }

    fn victim(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
        (self.pick)(&self.list, evictable)
    }

    fn len(&self) -> usize {
        self.list.len
    }
}

/// Clock (second chance): frames sit on a ring; the hand sweeps, clearing
/// referenced bits, and evicts the first unreferenced evictable frame.
#[derive(Debug, Default)]
pub struct ClockPolicy {
    prev: Vec<usize>,
    next: Vec<usize>,
    referenced: Vec<bool>,
    hand: usize,
    len: usize,
}

impl ClockPolicy {
    /// Creates an empty Clock policy.
    pub fn new() -> ClockPolicy {
        ClockPolicy {
            prev: Vec::new(),
            next: Vec::new(),
            referenced: Vec::new(),
            hand: NIL,
            len: 0,
        }
    }

    fn ensure(&mut self, slot: usize) {
        if slot >= self.prev.len() {
            self.prev.resize(slot + 1, NIL);
            self.next.resize(slot + 1, NIL);
            self.referenced.resize(slot + 1, false);
        }
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Clock
    }

    fn on_insert(&mut self, slot: usize) {
        self.ensure(slot);
        self.referenced[slot] = true;
        if self.hand == NIL {
            self.prev[slot] = slot;
            self.next[slot] = slot;
            self.hand = slot;
        } else {
            // Insert just behind the hand: the new frame is the last the
            // sweep reaches, giving it a full revolution of grace.
            let h = self.hand;
            let p = self.prev[h];
            self.next[p] = slot;
            self.prev[slot] = p;
            self.next[slot] = h;
            self.prev[h] = slot;
        }
        self.len += 1;
    }

    fn on_access(&mut self, slot: usize) {
        self.referenced[slot] = true;
    }

    fn on_remove(&mut self, slot: usize) {
        debug_assert!(self.len > 0);
        if self.len == 1 {
            self.hand = NIL;
        } else {
            let (p, n) = (self.prev[slot], self.next[slot]);
            self.next[p] = n;
            self.prev[n] = p;
            if self.hand == slot {
                self.hand = n;
            }
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.referenced[slot] = false;
        self.len -= 1;
    }

    fn victim(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
        if self.hand == NIL {
            return None;
        }
        // Two full revolutions reach every frame once with its bit cleared;
        // the +1 covers the bit-clearing visit of the starting frame.
        for _ in 0..(2 * self.len + 1) {
            let s = self.hand;
            if !evictable(s) {
                self.hand = self.next[s];
            } else if self.referenced[s] {
                self.referenced[s] = false;
                self.hand = self.next[s];
            } else {
                self.hand = self.next[s];
                return Some(s);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// LRU-2 (LRU-K, K = 2): victim is the frame with the oldest *penultimate*
/// access; frames seen only once count as never-re-referenced and drain
/// first (in order of their single access). Access bookkeeping is O(1); the
/// victim scan is O(n) over resident frames — acceptable at the paper's
/// 1200-page scale, and only paid on misses past capacity.
#[derive(Debug, Default)]
pub struct Lru2Policy {
    /// (penultimate, last) access stamps per slot; `0` = never.
    hist: Vec<(u64, u64)>,
    /// Dense list of tracked slots + index-into-it per slot, for O(1)
    /// insert/remove and an allocation-free victim scan.
    live: Vec<usize>,
    pos: Vec<usize>,
    clock: u64,
}

impl Lru2Policy {
    /// Creates an empty LRU-2 policy.
    pub fn new() -> Lru2Policy {
        Lru2Policy {
            hist: Vec::new(),
            live: Vec::new(),
            pos: Vec::new(),
            clock: 0,
        }
    }

    fn ensure(&mut self, slot: usize) {
        if slot >= self.hist.len() {
            self.hist.resize(slot + 1, (0, 0));
            self.pos.resize(slot + 1, NIL);
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

impl ReplacementPolicy for Lru2Policy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru2
    }

    fn on_insert(&mut self, slot: usize) {
        self.ensure(slot);
        let now = self.tick();
        self.hist[slot] = (0, now);
        self.pos[slot] = self.live.len();
        self.live.push(slot);
    }

    fn on_access(&mut self, slot: usize) {
        let now = self.tick();
        let (_, last) = self.hist[slot];
        self.hist[slot] = (last, now);
    }

    fn on_remove(&mut self, slot: usize) {
        let i = self.pos[slot];
        debug_assert!(i != NIL, "remove of untracked slot {slot}");
        let removed = self.live.swap_remove(i);
        debug_assert_eq!(removed, slot);
        if let Some(&moved) = self.live.get(i) {
            self.pos[moved] = i;
        }
        self.pos[slot] = NIL;
        self.hist[slot] = (0, 0);
    }

    fn victim(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
        self.live
            .iter()
            .copied()
            .filter(|&s| evictable(s))
            // Oldest penultimate access wins; ties (all the single-touch
            // frames share penult = 0) break on the oldest last access.
            .min_by_key(|&s| self.hist[s])
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn none(_: usize) -> bool {
        false
    }
    fn all(_: usize) -> bool {
        true
    }

    #[test]
    fn kind_roundtrips_through_strings() {
        for kind in PolicyKind::all() {
            let parsed: PolicyKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(kind.build().kind(), kind);
        }
        assert_eq!("lru-2".parse::<PolicyKind>().unwrap(), PolicyKind::Lru2);
        assert_eq!(
            "second-chance".parse::<PolicyKind>().unwrap(),
            PolicyKind::Clock
        );
        assert!("arc".parse::<PolicyKind>().is_err());
        assert_eq!(PolicyKind::default(), PolicyKind::Lru);
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        let mut p = PolicyKind::Lru.build();
        for s in 0..3 {
            p.on_insert(s);
        }
        p.on_access(0); // recency now: 0 > 2 > 1
        assert_eq!(p.victim(&all), Some(1));
        p.on_remove(1);
        assert_eq!(p.victim(&all), Some(2));
        p.on_remove(2);
        assert_eq!(p.victim(&all), Some(0));
        p.on_remove(0);
        assert!(p.is_empty());
        assert_eq!(p.victim(&all), None);
    }

    #[test]
    fn mru_evicts_hottest_first() {
        let mut p = PolicyKind::Mru.build();
        for s in 0..3 {
            p.on_insert(s);
        }
        p.on_access(1);
        assert_eq!(p.victim(&all), Some(1));
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut p = PolicyKind::Fifo.build();
        for s in 0..3 {
            p.on_insert(s);
        }
        p.on_access(0);
        p.on_access(0);
        assert_eq!(p.victim(&all), Some(0), "access must not rejuvenate");
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut p = ClockPolicy::new();
        for s in 0..3 {
            p.on_insert(s);
        }
        // All referenced: the first sweep clears 0,1,2 then evicts 0.
        assert_eq!(p.victim(&all), Some(0));
        p.on_remove(0);
        // 1 re-referenced: survives the next sweep, 2 goes.
        p.on_access(1);
        assert_eq!(p.victim(&all), Some(2));
        p.on_remove(2);
        assert_eq!(p.victim(&all), Some(1));
        p.on_remove(1);
        assert_eq!(p.victim(&all), None);
    }

    #[test]
    fn lru2_prefers_single_touch_frames() {
        let mut p = Lru2Policy::new();
        p.on_insert(0);
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(0); // 0 has two touches
        p.on_access(2);
        p.on_access(2); // 2 has three
                        // 1 is the only single-touch frame left.
        assert_eq!(p.victim(&all), Some(1));
        p.on_remove(1);
        // Between 0 and 2: penult(0)=1st tick < penult(2)=2nd.. evict 0.
        assert_eq!(p.victim(&all), Some(0));
    }

    #[test]
    fn every_policy_honours_the_evictability_filter() {
        for kind in PolicyKind::all() {
            let mut p = kind.build();
            for s in 0..4 {
                p.on_insert(s);
            }
            assert_eq!(p.victim(&none), None, "{kind}: nothing evictable");
            let only3 = |s: usize| s == 3;
            assert_eq!(p.victim(&only3), Some(3), "{kind}: filter ignored");
            // Removal keeps the structures consistent.
            p.on_remove(3);
            assert_eq!(p.len(), 3, "{kind}");
            let got = p.victim(&all).unwrap();
            assert!(got < 3, "{kind}: evicted removed slot");
        }
    }

    #[test]
    fn policies_survive_churn() {
        for kind in PolicyKind::all() {
            let mut p = kind.build();
            let mut resident: Vec<usize> = Vec::new();
            for round in 0..200usize {
                let slot = round % 8;
                if resident.contains(&slot) {
                    p.on_access(slot);
                    if round % 3 == 0 {
                        p.on_remove(slot);
                        resident.retain(|&s| s != slot);
                    }
                } else {
                    p.on_insert(slot);
                    resident.push(slot);
                }
                assert_eq!(p.len(), resident.len(), "{kind} round {round}");
                if !resident.is_empty() {
                    let v = p.victim(&all).unwrap();
                    assert!(resident.contains(&v), "{kind}: victim not resident");
                }
            }
        }
    }
}
