//! The set-associative cache array: tags, data, per-line consistency state.

use std::cell::Cell;
use std::ops::Range;

use crate::address::AddressMap;
use crate::config::{CacheConfig, ReplacementKind};
use moesi::rng::SmallRng;

/// One resident line, borrowed from the array: its protocol state and data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry<'a, S> {
    /// The consistency state attached to the line (e.g. `moesi::LineState`).
    pub state: S,
    /// The line contents.
    pub data: &'a [u8],
}

/// A line evicted to make room for a fill. Its bytes went to the buffer the
/// fill was given.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim<S> {
    /// The line-aligned address the victim occupied.
    pub addr: u64,
    /// Its state at eviction (the controller turns M/O victims into flushes).
    pub state: S,
}

/// Where a resident line sat when one tag scan found it: its slot (set and
/// way) in the array. A caller keeps it to reach the line again without a
/// scan. It is a hint, not a borrow: every method taking one first checks
/// that the slot still holds the line, one tag compare, and scans again
/// only if the line has moved or left.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineSlot(usize);

/// A set-associative cache array, generic over the per-line state type.
///
/// The array is a passive tag/data store: *it makes no protocol decisions*.
/// The snooping controller in `mpsim` owns the policy; this type owns
/// geometry, residency, replacement and the §5.2 recency ranks.
///
/// Every way's tag, state and recency rank live together in one flat vector
/// indexed by *slot*, `set * ways + way` (a snoop reads one set's few
/// adjacent records and nothing else), and the line bytes in one slab of
/// `line_size` bytes per slot: building an array allocates two blocks, and
/// no access allocates at all.
///
/// The array counts its *tag scans* — searches of one set's ways for a
/// line's tag, the unit of work every lookup, fill and write pays — in a
/// plain counter ([`tag_scans`](CacheArray::tag_scans)), the same in every
/// build: a deterministic work figure for the layers above. A method given
/// a current [`LineSlot`] scans nothing.
///
/// # Examples
///
/// ```
/// use cache_array::{CacheArray, CacheConfig};
///
/// let mut cache: CacheArray<char> = CacheArray::new(CacheConfig::small(), 1);
/// assert!(cache.fill(0x1000, 'S', &[0; 32], &mut Vec::new()).is_none());
/// assert_eq!(cache.state_of(0x1010), Some('S')); // same line
/// assert_eq!(cache.state_of(0x2000), None);
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray<S> {
    config: CacheConfig,
    map: AddressMap,
    /// Per slot: the way's tag, state and rank.
    slots: Vec<Slot<S>>,
    /// The line bytes, `line_size` per slot.
    data: Vec<u8>,
    rng: SmallRng,
    resident: usize,
    /// Tag scans made so far.
    scans: Cell<u64>,
}

/// One way of one set (its bytes live in the slab).
#[derive(Clone, Copy, Debug)]
struct Slot<S> {
    /// The address tag (meaningful while the way is occupied).
    tag: u64,
    /// The line's rank among the occupied ways of its set, 0 = most recent
    /// (LRU) or newest (FIFO).
    rank: u32,
    /// The line's state, `None` for an empty way.
    state: Option<S>,
}

impl<S: Copy> CacheArray<S> {
    /// Creates an empty array; `seed` drives random replacement (if chosen).
    #[must_use]
    pub fn new(config: CacheConfig, seed: u64) -> Self {
        let map = AddressMap::new(config.line_size, config.sets());
        let empty = Slot {
            tag: 0,
            rank: 0,
            state: None,
        };
        CacheArray {
            config,
            map,
            slots: vec![empty; config.lines()],
            data: vec![0; config.lines() * config.line_size],
            rng: SmallRng::seed_from_u64(seed),
            resident: 0,
            scans: Cell::new(0),
        }
    }

    /// The geometry this array was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The address decomposition in force.
    #[must_use]
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resident
    }

    /// True when no line is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Tag scans made since the array was built: one per lookup, fill or
    /// read by address, none for a method given a current
    /// [`LineSlot`].
    #[must_use]
    pub fn tag_scans(&self) -> u64 {
        self.scans.get()
    }

    /// The slots of `set`.
    fn set_slots(&self, set: usize) -> Range<usize> {
        let ways = self.config.associativity;
        set * ways..(set + 1) * ways
    }

    /// The slot holding `tag` in `set`, if resident: one tag scan.
    fn slot_of(&self, tag: u64, set: usize) -> Option<usize> {
        self.scans.set(self.scans.get() + 1);
        let slots = self.set_slots(set);
        let start = slots.start;
        self.slots[slots]
            .iter()
            .position(|s| s.tag == tag && s.state.is_some())
            .map(|way| start + way)
    }

    /// The slot holding the line containing `addr`, if resident.
    fn find(&self, addr: u64) -> Option<usize> {
        let (tag, set, _) = self.map.split(addr);
        self.slot_of(tag, set)
    }

    /// The slot holding the line containing `addr`: `at` when it still does
    /// (no scan), else wherever a scan finds it.
    fn resolve(&self, at: LineSlot, addr: u64) -> Option<usize> {
        let (tag, set, _) = self.map.split(addr);
        let s = self.slots.get(at.0)?;
        if at.0 / self.config.associativity == set && s.tag == tag && s.state.is_some() {
            Some(at.0)
        } else {
            self.slot_of(tag, set)
        }
    }

    /// The byte range of `slot` in the slab.
    fn span(&self, slot: usize) -> Range<usize> {
        let size = self.config.line_size;
        slot * size..(slot + 1) * size
    }

    /// Looks a line up without touching replacement state.
    #[must_use]
    #[inline]
    pub fn lookup(&self, addr: u64) -> Option<Entry<'_, S>> {
        let slot = self.find(addr)?;
        Some(Entry {
            state: self.slots[slot].state?,
            data: &self.data[self.span(slot)],
        })
    }

    /// Marks the line most-recently-used (a hit, for LRU; FIFO and random
    /// ignore touches).
    pub fn touch(&mut self, addr: u64) {
        if self.config.replacement != ReplacementKind::Lru {
            return;
        }
        if let Some(slot) = self.find(addr) {
            self.promote(slot);
        }
    }

    /// Gives occupied `slot` rank 0, moving the ways that were ahead of it
    /// back by one — a no-op when it already leads (the common case in
    /// access streaks).
    fn promote(&mut self, slot: usize) {
        let rank = self.slots[slot].rank;
        if rank == 0 {
            return;
        }
        let set = self.set_slots(slot / self.config.associativity);
        for s in &mut self.slots[set] {
            if s.state.is_some() && s.rank < rank {
                s.rank += 1;
            }
        }
        self.slots[slot].rank = 0;
    }

    /// Empties occupied `slot`, closing the gap in its set's ranks. Its
    /// bytes stay in the slab until the next fill.
    fn remove(&mut self, slot: usize) {
        let rank = self.slots[slot].rank;
        self.slots[slot].state = None;
        let set = self.set_slots(slot / self.config.associativity);
        for s in &mut self.slots[set] {
            if s.state.is_some() && s.rank > rank {
                s.rank -= 1;
            }
        }
        self.resident -= 1;
    }

    /// The line's recency rank in its set: 0 = most recent, `ways-1` =
    /// next victim. `None` when not resident.
    #[must_use]
    pub fn recency_rank(&self, addr: u64) -> Option<u32> {
        self.find(addr).map(|slot| self.slots[slot].rank)
    }

    /// Fills (or overwrites) a line with a copy of `data`, evicting a victim
    /// if the set is full. The victim's bytes replace the contents of
    /// `victim_data`, so a caller that reuses that buffer allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one line.
    pub fn fill(
        &mut self,
        addr: u64,
        state: S,
        data: &[u8],
        victim_data: &mut Vec<u8>,
    ) -> Option<Victim<S>> {
        assert_eq!(
            data.len(),
            self.config.line_size,
            "fill must provide a full line"
        );
        let (tag, set, _) = self.map.split(addr);
        let mut victim = None;
        let slot = if let Some(slot) = self.slot_of(tag, set) {
            // Already resident: overwrite in place.
            if self.config.replacement == ReplacementKind::Lru {
                self.promote(slot);
            }
            slot
        } else if let Some(slot) = self.set_slots(set).find(|&s| self.slots[s].state.is_none()) {
            // A free way: the newcomer goes in front of every occupied way.
            let ways = self.set_slots(set);
            for s in &mut self.slots[ways] {
                if s.state.is_some() {
                    s.rank += 1;
                }
            }
            self.slots[slot].rank = 0;
            self.resident += 1;
            slot
        } else {
            // Evict per policy; the newcomer takes the victim's way, in
            // front.
            let slot = self.pick_victim(set);
            victim = Some(Victim {
                addr: self.map.reassemble(self.slots[slot].tag, set),
                state: self.slots[slot].state.expect("a full set has no empty way"),
            });
            victim_data.clear();
            victim_data.extend_from_slice(&self.data[self.span(slot)]);
            self.promote(slot);
            slot
        };
        self.slots[slot].tag = tag;
        self.slots[slot].state = Some(state);
        let span = self.span(slot);
        self.data[span].copy_from_slice(data);
        victim
    }

    /// Removes a line, returning its state.
    pub fn invalidate(&mut self, addr: u64) -> Option<S> {
        let slot = self.find(addr)?;
        let state = self.slots[slot].state;
        self.remove(slot);
        state
    }

    /// Sets a resident line's state — `None` removes the line — and lends
    /// its bytes, which stay intact until the next fill. `None` on a miss.
    pub fn update(&mut self, addr: u64, state: Option<S>) -> Option<&[u8]> {
        let slot = self.find(addr)?;
        match state {
            Some(state) => self.slots[slot].state = Some(state),
            None => self.remove(slot),
        }
        Some(&self.data[self.span(slot)])
    }

    /// Iterates over resident lines as `(line_addr, entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Entry<'_, S>)> + '_ {
        let ways = self.config.associativity;
        self.slots.iter().enumerate().filter_map(move |(slot, s)| {
            let entry = Entry {
                state: s.state?,
                data: &self.data[self.span(slot)],
            };
            Some((self.map.reassemble(s.tag, slot / ways), entry))
        })
    }

    /// The way of full `set` to evict.
    fn pick_victim(&mut self, set: usize) -> usize {
        let slots = self.set_slots(set);
        match self.config.replacement {
            // LRU: the last rank is least recent. FIFO: the last rank is the
            // oldest insertion (hits never reorder).
            ReplacementKind::Lru | ReplacementKind::Fifo => {
                let last = self.config.associativity as u32 - 1;
                slots
                    .clone()
                    .find(|&s| self.slots[s].rank == last)
                    .expect("a full set ranks every way")
            }
            ReplacementKind::Random => slots.start + self.rng.gen_range(0..slots.len()),
        }
    }

    /// The state of the line containing `addr`, if resident.
    #[must_use]
    pub fn state_of(&self, addr: u64) -> Option<S> {
        self.find(addr).and_then(|slot| self.slots[slot].state)
    }

    /// Replaces the state of a resident line; returns false if not resident.
    pub fn set_state(&mut self, addr: u64, state: S) -> bool {
        self.update(addr, Some(state)).is_some()
    }

    /// Single-pass hit probe: if the line containing `addr` is resident,
    /// marks it most-recently-used and returns its state. Equivalent to
    /// `state_of` followed by `touch`, in one tag scan — the engine's
    /// dataless read-hit path.
    pub fn touch_state(&mut self, addr: u64) -> Option<S> {
        let slot = self.find(addr)?;
        if self.config.replacement == ReplacementKind::Lru {
            self.promote(slot);
        }
        self.slots[slot].state
    }

    /// A resident line's state, recency rank and slot, in one tag scan: for
    /// a caller that consults its protocol on the line and then changes it
    /// without scanning for it again.
    #[must_use]
    pub fn locate(&self, addr: u64) -> Option<(LineSlot, S, u32)> {
        let slot = self.find(addr)?;
        let s = self.slots[slot];
        Some((LineSlot(slot), s.state?, s.rank))
    }

    /// Sets the state of the line `at` locates — `None` removes it — after
    /// writing `bytes` at `offset` within it, if given, and marking it
    /// most-recently-used if `touch`: a write hit's or a snooper's whole
    /// commit in one step, scanning only if `at` is stale. False, changing
    /// nothing, when the line containing `addr` is not resident.
    ///
    /// # Panics
    ///
    /// Panics if the write crosses the end of the line.
    pub fn commit_at(
        &mut self,
        at: LineSlot,
        addr: u64,
        write: Option<(usize, &[u8])>,
        touch: bool,
        state: Option<S>,
    ) -> bool {
        let Some(slot) = self.resolve(at, addr) else {
            return false;
        };
        if let Some((offset, bytes)) = write {
            assert!(
                offset + bytes.len() <= self.config.line_size,
                "write crosses line boundary; split it first"
            );
            let start = self.span(slot).start + offset;
            self.data[start..start + bytes.len()].copy_from_slice(bytes);
        }
        if touch && self.config.replacement == ReplacementKind::Lru {
            self.promote(slot);
        }
        match state {
            Some(state) => self.slots[slot].state = Some(state),
            None => self.remove(slot),
        }
        true
    }

    /// The slab range of the `len` bytes at `addr`, when the line is
    /// resident.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the end of the line.
    fn bytes_at(&self, addr: u64, len: usize) -> Option<(usize, Range<usize>)> {
        let (tag, set, offset) = self.map.split(addr);
        assert!(
            offset + len <= self.config.line_size,
            "read crosses line boundary; split it first"
        );
        let slot = self.slot_of(tag, set)?;
        let start = self.span(slot).start + offset;
        Some((slot, start..start + len))
    }

    /// The `len` bytes at `addr` in a resident line, borrowed; `None` on a
    /// miss.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the end of the line — split line
    /// crossers first ([`split_line_crossers`](crate::split_line_crossers)).
    #[must_use]
    pub fn read(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let (_, range) = self.bytes_at(addr, len)?;
        Some(&self.data[range])
    }

    /// [`touch`](CacheArray::touch) then [`read`](CacheArray::read), in one
    /// tag scan: the copying read-hit path.
    ///
    /// # Panics
    ///
    /// As [`read`](CacheArray::read).
    pub fn touch_read(&mut self, addr: u64, len: usize) -> Option<&[u8]> {
        let (slot, range) = self.bytes_at(addr, len)?;
        if self.config.replacement == ReplacementKind::Lru {
            self.promote(slot);
        }
        Some(&self.data[range])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray<char> {
        // 4 sets, 2 ways, 16B lines.
        CacheArray::new(CacheConfig::new(128, 16, 2, ReplacementKind::Lru), 1)
    }

    fn line(v: u8) -> [u8; 16] {
        [v; 16]
    }

    /// Fills `data`, discarding any victim's bytes.
    fn fill(
        c: &mut CacheArray<char>,
        addr: u64,
        state: char,
        data: [u8; 16],
    ) -> Option<Victim<char>> {
        c.fill(addr, state, &data, &mut Vec::new())
    }

    #[test]
    fn fill_lookup_round_trip() {
        let mut c = small();
        assert!(fill(&mut c, 0x100, 'M', line(1)).is_none());
        assert_eq!(c.state_of(0x100), Some('M'));
        assert_eq!(c.state_of(0x10F), Some('M'), "same line");
        assert_eq!(c.read(0x104, 4), Some(&[1; 4][..]));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn refill_overwrites_without_eviction() {
        let mut c = small();
        fill(&mut c, 0x100, 'S', line(1));
        assert!(fill(&mut c, 0x100, 'M', line(2)).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.read(0x100, 1), Some(&[2][..]));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // 0x000 and 0x040 map to set 0 (16B lines, 4 sets -> set stride 64).
        fill(&mut c, 0x000, 'a', line(0));
        fill(&mut c, 0x040, 'b', line(1));
        c.touch(0x000); // make 0x000 MRU
        let mut bytes = vec![0xEE; 3];
        let victim = c
            .fill(0x080, 'c', &line(2), &mut bytes)
            .expect("set is full");
        assert_eq!(victim.addr, 0x040);
        assert_eq!(victim.state, 'b');
        assert_eq!(bytes, [1; 16], "the victim's bytes replace the buffer");
        assert_eq!(c.state_of(0x000), Some('a'));
        assert_eq!(c.state_of(0x080), Some('c'));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c = CacheArray::new(CacheConfig::new(128, 16, 2, ReplacementKind::Fifo), 1);
        fill(&mut c, 0x000, 'a', line(0));
        fill(&mut c, 0x040, 'b', line(1));
        c.touch(0x000); // should not help under FIFO
        let victim = fill(&mut c, 0x080, 'c', line(2)).unwrap();
        assert_eq!(victim.addr, 0x000, "oldest insertion evicted");
    }

    #[test]
    fn random_evicts_an_occupied_way() {
        let mut c = CacheArray::new(CacheConfig::new(128, 16, 2, ReplacementKind::Random), 7);
        fill(&mut c, 0x000, 'a', line(0));
        fill(&mut c, 0x040, 'b', line(1));
        let victim = fill(&mut c, 0x080, 'c', line(2)).unwrap();
        assert!(victim.addr == 0x000 || victim.addr == 0x040);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn recency_ranks_follow_touches() {
        let mut c = small();
        fill(&mut c, 0x000, 'a', line(0));
        fill(&mut c, 0x040, 'b', line(1));
        assert_eq!(c.recency_rank(0x040), Some(0), "just filled = MRU");
        assert_eq!(c.recency_rank(0x000), Some(1));
        c.touch(0x000);
        assert_eq!(c.recency_rank(0x000), Some(0));
        assert_eq!(c.recency_rank(0x040), Some(1));
        assert_eq!(c.recency_rank(0x999), None);
    }

    #[test]
    fn invalidate_removes_and_returns() {
        let mut c = small();
        fill(&mut c, 0x100, 'O', line(9));
        assert_eq!(c.invalidate(0x100), Some('O'));
        assert!(c.is_empty());
        assert!(c.invalidate(0x100).is_none());
        assert_eq!(c.recency_rank(0x100), None);
    }

    #[test]
    fn update_lends_the_bytes_of_a_removed_line() {
        let mut c = small();
        fill(&mut c, 0x000, 'a', line(3));
        fill(&mut c, 0x040, 'b', line(4));
        assert_eq!(c.update(0x040, Some('B')), Some(&[4; 16][..]));
        assert_eq!(c.state_of(0x040), Some('B'));
        assert_eq!(c.update(0x000, None), Some(&[3; 16][..]));
        assert_eq!(c.state_of(0x000), None);
        assert_eq!(c.recency_rank(0x040), Some(0), "ranks close the gap");
        assert_eq!(c.update(0x000, None), None, "a miss lends nothing");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn writes_update_data_in_place() {
        let mut c = small();
        fill(&mut c, 0x200, 'M', line(0));
        let (at, state, _) = c.locate(0x204).unwrap();
        assert!(c.commit_at(at, 0x204, Some((4, &[0xAA, 0xBB])), false, Some(state)));
        assert_eq!(c.read(0x204, 2), Some(&[0xAA, 0xBB][..]));
        assert_eq!(c.read(0x200, 4), Some(&[0; 4][..]), "the rest is kept");
        assert!(c.locate(0x300).is_none(), "a miss locates nothing");
    }

    #[test]
    fn iter_visits_every_resident_line() {
        let mut c = small();
        fill(&mut c, 0x000, 'a', line(0));
        fill(&mut c, 0x050, 'b', line(1));
        fill(&mut c, 0x0A0, 'c', line(2));
        let mut addrs: Vec<u64> = c.iter().map(|(a, _)| a).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0x000, 0x050, 0x0A0]);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        for i in 0..4u64 {
            assert!(fill(&mut c, i * 16, 'x', line(i as u8)).is_none());
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn a_located_slot_commits_without_a_scan() {
        let mut c = small();
        fill(&mut c, 0x000, 'a', line(1));
        fill(&mut c, 0x040, 'b', line(2));
        let (at, state, rank) = c.locate(0x000).unwrap();
        assert_eq!((state, rank), ('a', 1));
        let scans = c.tag_scans();
        assert!(c.commit_at(at, 0x000, Some((4, &[9, 9])), true, Some('M')));
        assert_eq!(c.tag_scans(), scans, "a current slot scans nothing");
        assert_eq!(c.read(0x004, 2), Some(&[9, 9][..]));
        assert_eq!(
            (c.state_of(0x000), c.recency_rank(0x000)),
            (Some('M'), Some(0))
        );
        // A snooper's commit leaves recency alone; `None` removes the line.
        let (at, _, _) = c.locate(0x040).unwrap();
        assert!(c.commit_at(at, 0x040, None, false, None));
        assert_eq!(c.state_of(0x040), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn a_stale_slot_finds_the_line_again_or_reports_a_miss() {
        let mut c = small();
        fill(&mut c, 0x000, 'a', line(1));
        let (at, _, _) = c.locate(0x000).unwrap();
        // The line leaves, and another line of its set takes the way.
        c.invalidate(0x000);
        let scans = c.tag_scans();
        assert!(!c.commit_at(at, 0x000, None, true, Some('M')));
        assert_eq!(c.tag_scans(), scans + 1, "a stale slot scans once");
        fill(&mut c, 0x040, 'b', line(2));
        fill(&mut c, 0x000, 'a', line(3));
        assert!(!c.commit_at(at, 0x080, None, true, Some('x')), "other tag");
        // The slot now holds 0x040, so 0x000 is found by a scan.
        assert!(c.commit_at(at, 0x000, Some((0, &[7])), false, Some('S')));
        assert_eq!(c.state_of(0x000), Some('S'));
        assert_eq!(c.read(0x000, 1), Some(&[7][..]));
        assert_eq!(
            c.state_of(0x040),
            Some('b'),
            "the way's new line is untouched"
        );
    }

    #[test]
    fn every_lookup_by_address_is_one_tag_scan() {
        let mut c = small();
        assert_eq!(c.tag_scans(), 0);
        fill(&mut c, 0x100, 'M', line(0)); // 1
        let _ = c.state_of(0x100); // 2
        let _ = c.lookup(0x100); // 3
        let _ = c.locate(0x100); // 4
        let _ = c.touch_state(0x104); // 5
        let _ = c.touch_read(0x104, 1); // 6
        let _ = c.iter().count(); // not a scan
        assert_eq!(c.tag_scans(), 6);
    }

    #[test]
    #[should_panic(expected = "full line")]
    fn short_fills_are_rejected() {
        let mut c = small();
        c.fill(0, 'x', &[0; 8], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "crosses line boundary")]
    fn crossing_reads_are_rejected() {
        let mut c = small();
        fill(&mut c, 0, 'x', line(0));
        let _ = c.read(12, 8);
    }
}
