//! The set-associative cache array: tags, data, per-line consistency state.

use crate::address::AddressMap;
use crate::config::{CacheConfig, ReplacementKind};
use moesi::rng::SmallRng;

/// One resident line: its tag, protocol state and data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry<S> {
    /// The address tag.
    pub tag: u64,
    /// The consistency state attached to the line (e.g. `moesi::LineState`).
    pub state: S,
    /// The line contents.
    pub data: Box<[u8]>,
}

/// A line evicted to make room for a fill.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Victim<S> {
    /// The line-aligned address the victim occupied.
    pub addr: u64,
    /// Its state at eviction (the controller turns M/O victims into flushes).
    pub state: S,
    /// Its data.
    pub data: Box<[u8]>,
}

#[derive(Clone, Debug)]
struct CacheSet<S> {
    ways: Vec<Option<Entry<S>>>,
    /// Occupied way indices; front = most recent (LRU) or newest (FIFO).
    order: Vec<usize>,
}

impl<S> CacheSet<S> {
    fn new(ways: usize) -> Self {
        CacheSet {
            ways: (0..ways).map(|_| None).collect(),
            order: Vec::with_capacity(ways),
        }
    }

    fn way_of(&self, tag: u64) -> Option<usize> {
        self.ways
            .iter()
            .position(|w| w.as_ref().is_some_and(|e| e.tag == tag))
    }
}

/// A set-associative cache array, generic over the per-line state type.
///
/// The array is a passive tag/data store: *it makes no protocol decisions*.
/// The snooping controller in `mpsim` owns the policy; this type owns
/// geometry, residency, replacement and the §5.2 recency ranks.
///
/// # Examples
///
/// ```
/// use cache_array::{CacheArray, CacheConfig};
///
/// let mut cache: CacheArray<char> = CacheArray::new(CacheConfig::small(), 1);
/// assert!(cache.fill(0x1000, 'S', vec![0; 32].into()).is_none());
/// assert_eq!(cache.state_of(0x1010), Some('S')); // same line
/// assert_eq!(cache.state_of(0x2000), None);
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray<S> {
    config: CacheConfig,
    map: AddressMap,
    sets: Vec<CacheSet<S>>,
    rng: SmallRng,
    resident: usize,
}

impl<S> CacheArray<S> {
    /// Creates an empty array; `seed` drives random replacement (if chosen).
    #[must_use]
    pub fn new(config: CacheConfig, seed: u64) -> Self {
        let map = AddressMap::new(config.line_size, config.sets());
        CacheArray {
            config,
            map,
            sets: (0..config.sets())
                .map(|_| CacheSet::new(config.associativity))
                .collect(),
            rng: SmallRng::seed_from_u64(seed),
            resident: 0,
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

    /// Looks a line up without touching replacement state.
    #[must_use]
    pub fn lookup(&self, addr: u64) -> Option<&Entry<S>> {
        let (tag, set, _) = self.map.split(addr);
        let set = &self.sets[set];
        set.way_of(tag).and_then(|w| set.ways[w].as_ref())
    }

    /// Mutable lookup (data writes); does not touch replacement state.
    pub fn lookup_mut(&mut self, addr: u64) -> Option<&mut Entry<S>> {
        let (tag, set_idx, _) = self.map.split(addr);
        let set = &mut self.sets[set_idx];
        let way = set.way_of(tag)?;
        set.ways[way].as_mut()
    }

    /// Marks the line most-recently-used (a hit, for LRU; FIFO and random
    /// ignore touches).
    pub fn touch(&mut self, addr: u64) {
        if self.config.replacement != ReplacementKind::Lru {
            return;
        }
        let (tag, set_idx, _) = self.map.split(addr);
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.way_of(tag) {
            Self::make_mru(set, way);
        }
    }

    /// Moves `way` to the front of the set's recency order unless it is
    /// already there (the common case in access streaks).
    fn make_mru(set: &mut CacheSet<S>, way: usize) {
        if set.order.first() == Some(&way) {
            return;
        }
        if let Some(pos) = set.order.iter().position(|&w| w == way) {
            set.order.remove(pos);
        }
        set.order.insert(0, way);
    }

    /// The line's recency rank in its set: 0 = most recent, `ways-1` =
    /// next victim. `None` when not resident.
    #[must_use]
    pub fn recency_rank(&self, addr: u64) -> Option<u32> {
        let (tag, set_idx, _) = self.map.split(addr);
        let set = &self.sets[set_idx];
        let way = set.way_of(tag)?;
        set.order.iter().position(|&w| w == way).map(|p| p as u32)
    }

    /// Fills (or overwrites) a line, evicting a victim if the set is full.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one line.
    pub fn fill(&mut self, addr: u64, state: S, data: Box<[u8]>) -> Option<Victim<S>> {
        assert_eq!(
            data.len(),
            self.config.line_size,
            "fill must provide a full line"
        );
        let (tag, set_idx, _) = self.map.split(addr);
        // Already resident: overwrite in place.
        if let Some(way) = self.sets[set_idx].way_of(tag) {
            self.sets[set_idx].ways[way] = Some(Entry { tag, state, data });
            self.promote(set_idx, way);
            return None;
        }
        // Free way available?
        if let Some(way) = self.sets[set_idx].ways.iter().position(Option::is_none) {
            self.sets[set_idx].ways[way] = Some(Entry { tag, state, data });
            self.sets[set_idx].order.insert(0, way);
            self.resident += 1;
            return None;
        }
        // Evict per policy.
        let way = self.pick_victim(set_idx);
        let old = self.sets[set_idx].ways[way]
            .take()
            .expect("victim way must be occupied");
        let victim = Victim {
            addr: self.map.reassemble(old.tag, set_idx),
            state: old.state,
            data: old.data,
        };
        self.sets[set_idx].ways[way] = Some(Entry { tag, state, data });
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.order.iter().position(|&w| w == way) {
            set.order.remove(pos);
        }
        set.order.insert(0, way);
        Some(victim)
    }

    /// Removes a line, returning it.
    pub fn invalidate(&mut self, addr: u64) -> Option<Entry<S>> {
        let (tag, set_idx, _) = self.map.split(addr);
        let set = &mut self.sets[set_idx];
        let way = set.way_of(tag)?;
        if let Some(pos) = set.order.iter().position(|&w| w == way) {
            set.order.remove(pos);
        }
        self.resident -= 1;
        set.ways[way].take()
    }

    /// Iterates over resident lines as `(line_addr, &entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Entry<S>)> + '_ {
        self.sets
            .iter()
            .enumerate()
            .flat_map(move |(set_idx, set)| {
                set.ways.iter().filter_map(move |w| {
                    w.as_ref().map(|e| (self.map.reassemble(e.tag, set_idx), e))
                })
            })
    }

    fn promote(&mut self, set_idx: usize, way: usize) {
        if self.config.replacement != ReplacementKind::Lru {
            return;
        }
        Self::make_mru(&mut self.sets[set_idx], way);
    }

    fn pick_victim(&mut self, set_idx: usize) -> usize {
        let set = &self.sets[set_idx];
        match self.config.replacement {
            // LRU: the back of the order is least recent. FIFO: the back is
            // the oldest insertion (hits never reorder).
            ReplacementKind::Lru | ReplacementKind::Fifo => {
                *set.order.last().expect("full set has order entries")
            }
            ReplacementKind::Random => {
                let occupied: Vec<usize> = (0..set.ways.len())
                    .filter(|&w| set.ways[w].is_some())
                    .collect();
                occupied[self.rng.gen_range(0..occupied.len())]
            }
        }
    }
}

impl<S: Copy> CacheArray<S> {
    /// The state of the line containing `addr`, if resident.
    #[must_use]
    pub fn state_of(&self, addr: u64) -> Option<S> {
        self.lookup(addr).map(|e| e.state)
    }

    /// Replaces the state of a resident line; returns false if not resident.
    pub fn set_state(&mut self, addr: u64, state: S) -> bool {
        match self.lookup_mut(addr) {
            Some(e) => {
                e.state = state;
                true
            }
            None => false,
        }
    }

    /// Single-pass hit probe: if the line containing `addr` is resident,
    /// marks it most-recently-used and returns its state. Equivalent to
    /// `state_of` followed by `touch`, in one tag scan — the engine's
    /// dataless read-hit path.
    pub fn touch_state(&mut self, addr: u64) -> Option<S> {
        let (tag, set_idx, _) = self.map.split(addr);
        let set = &mut self.sets[set_idx];
        let way = set.way_of(tag)?;
        let state = set.ways[way].as_ref()?.state;
        if self.config.replacement == ReplacementKind::Lru {
            Self::make_mru(set, way);
        }
        Some(state)
    }

    /// Single-pass `state_of` + `recency_rank`: one tag scan for the
    /// protocol-consultation paths that need both.
    #[must_use]
    pub fn state_and_rank(&self, addr: u64) -> Option<(S, u32)> {
        let (tag, set_idx, _) = self.map.split(addr);
        let set = &self.sets[set_idx];
        let way = set.way_of(tag)?;
        let state = set.ways[way].as_ref()?.state;
        let rank = set.order.iter().position(|&w| w == way)? as u32;
        Some((state, rank))
    }
}

impl<S> CacheArray<S> {
    /// The `len` bytes at `addr` in a resident line, borrowed; `None` on a
    /// miss.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the end of the line — split line
    /// crossers first ([`split_line_crossers`](crate::split_line_crossers)).
    #[must_use]
    pub fn read(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let (_, _, offset) = self.map.split(addr);
        assert!(
            offset + len <= self.config.line_size,
            "read crosses line boundary; split it first"
        );
        self.lookup(addr).map(|e| &e.data[offset..offset + len])
    }

    /// Writes bytes at `addr` into a resident line; false on a miss.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the end of the line.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> bool {
        let (_, _, offset) = self.map.split(addr);
        assert!(
            offset + bytes.len() <= self.config.line_size,
            "write crosses line boundary; split it first"
        );
        match self.lookup_mut(addr) {
            Some(e) => {
                e.data[offset..offset + bytes.len()].copy_from_slice(bytes);
                true
            }
            None => false,
        }
    }

    /// [`CacheArray::write`] followed by [`CacheArray::touch`], in one tag
    /// scan — the write-hit path.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the end of the line.
    pub fn write_touch(&mut self, addr: u64, bytes: &[u8]) -> bool {
        let (tag, set_idx, offset) = self.map.split(addr);
        assert!(
            offset + bytes.len() <= self.config.line_size,
            "write crosses line boundary; split it first"
        );
        let set = &mut self.sets[set_idx];
        let Some(way) = set.way_of(tag) else {
            return false;
        };
        let entry = set.ways[way]
            .as_mut()
            .expect("way_of returns occupied ways");
        entry.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        if self.config.replacement == ReplacementKind::Lru {
            Self::make_mru(set, way);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray<char> {
        // 4 sets, 2 ways, 16B lines.
        CacheArray::new(CacheConfig::new(128, 16, 2, ReplacementKind::Lru), 1)
    }

    fn line(v: u8) -> Box<[u8]> {
        vec![v; 16].into_boxed_slice()
    }

    #[test]
    fn fill_lookup_round_trip() {
        let mut c = small();
        assert!(c.fill(0x100, 'M', line(1)).is_none());
        assert_eq!(c.state_of(0x100), Some('M'));
        assert_eq!(c.state_of(0x10F), Some('M'), "same line");
        assert_eq!(c.read(0x104, 4), Some(&[1; 4][..]));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn refill_overwrites_without_eviction() {
        let mut c = small();
        c.fill(0x100, 'S', line(1));
        assert!(c.fill(0x100, 'M', line(2)).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.read(0x100, 1), Some(&[2][..]));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // 0x000 and 0x040 map to set 0 (16B lines, 4 sets -> set stride 64).
        c.fill(0x000, 'a', line(0));
        c.fill(0x040, 'b', line(1));
        c.touch(0x000); // make 0x000 MRU
        let victim = c.fill(0x080, 'c', line(2)).expect("set is full");
        assert_eq!(victim.addr, 0x040);
        assert_eq!(victim.state, 'b');
        assert_eq!(&victim.data[..], &[1; 16]);
        assert_eq!(c.state_of(0x000), Some('a'));
        assert_eq!(c.state_of(0x080), Some('c'));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c = CacheArray::new(CacheConfig::new(128, 16, 2, ReplacementKind::Fifo), 1);
        c.fill(0x000, 'a', line(0));
        c.fill(0x040, 'b', line(1));
        c.touch(0x000); // should not help under FIFO
        let victim = c.fill(0x080, 'c', line(2)).unwrap();
        assert_eq!(victim.addr, 0x000, "oldest insertion evicted");
    }

    #[test]
    fn random_evicts_an_occupied_way() {
        let mut c = CacheArray::new(CacheConfig::new(128, 16, 2, ReplacementKind::Random), 7);
        c.fill(0x000, 'a', line(0));
        c.fill(0x040, 'b', line(1));
        let victim = c.fill(0x080, 'c', line(2)).unwrap();
        assert!(victim.addr == 0x000 || victim.addr == 0x040);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn recency_ranks_follow_touches() {
        let mut c = small();
        c.fill(0x000, 'a', line(0));
        c.fill(0x040, 'b', line(1));
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
        c.fill(0x100, 'O', line(9));
        let e = c.invalidate(0x100).expect("resident");
        assert_eq!(e.state, 'O');
        assert!(c.is_empty());
        assert!(c.invalidate(0x100).is_none());
        assert_eq!(c.recency_rank(0x100), None);
    }

    #[test]
    fn writes_update_data_in_place() {
        let mut c = small();
        c.fill(0x200, 'M', line(0));
        assert!(c.write(0x204, &[0xAA, 0xBB]));
        assert_eq!(c.read(0x204, 2), Some(&[0xAA, 0xBB][..]));
        assert!(!c.write(0x300, &[1]), "miss returns false");
    }

    #[test]
    fn iter_visits_every_resident_line() {
        let mut c = small();
        c.fill(0x000, 'a', line(0));
        c.fill(0x050, 'b', line(1));
        c.fill(0x0A0, 'c', line(2));
        let mut addrs: Vec<u64> = c.iter().map(|(a, _)| a).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0x000, 0x050, 0x0A0]);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        for i in 0..4u64 {
            assert!(c.fill(i * 16, 'x', line(i as u8)).is_none());
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    #[should_panic(expected = "full line")]
    fn short_fills_are_rejected() {
        let mut c = small();
        c.fill(0, 'x', vec![0; 8].into_boxed_slice());
    }

    #[test]
    #[should_panic(expected = "crosses line boundary")]
    fn crossing_reads_are_rejected() {
        let mut c = small();
        c.fill(0, 'x', line(0));
        let _ = c.read(12, 8);
    }
}
