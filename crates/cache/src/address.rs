//! Address decomposition and line-crosser splitting.

/// Splits byte addresses into (tag, set index, line offset) for a given
/// geometry, and line-aligns addresses.
///
/// # Examples
///
/// ```
/// use cache_array::AddressMap;
///
/// let map = AddressMap::new(32, 64);
/// let (tag, set, offset) = map.split(0x12345);
/// assert_eq!(offset, 0x5);
/// assert_eq!(set, (0x12345 >> 5) as usize & 63);
/// assert_eq!(tag, 0x12345 >> 11);
/// assert_eq!(map.line_addr(0x12345), 0x12340);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddressMap {
    line_size: usize,
    sets: usize,
    offset_bits: u32,
    set_bits: u32,
}

impl AddressMap {
    /// Creates a map for the given line size and set count (both powers of
    /// two).
    ///
    /// # Panics
    ///
    /// Panics if either argument is not a power of two.
    #[must_use]
    pub fn new(line_size: usize, sets: usize) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        AddressMap {
            line_size,
            sets,
            offset_bits: line_size.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
        }
    }

    /// The line size in bytes.
    #[must_use]
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// Decomposes an address into `(tag, set index, offset)`.
    #[must_use]
    pub fn split(&self, addr: u64) -> (u64, usize, usize) {
        let offset = (addr & (self.line_size as u64 - 1)) as usize;
        let set = ((addr >> self.offset_bits) & (self.sets as u64 - 1)) as usize;
        let tag = addr >> (self.offset_bits + self.set_bits);
        (tag, set, offset)
    }

    /// The line-aligned address containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_size as u64 - 1)
    }

    /// Reassembles a line address from its tag and set index.
    #[must_use]
    pub fn reassemble(&self, tag: u64, set: usize) -> u64 {
        (tag << (self.offset_bits + self.set_bits)) | ((set as u64) << self.offset_bits)
    }
}

/// Splits an access of `size` bytes at `addr` into per-line pieces.
///
/// §5.1: "a processor operation which makes a reference which overlaps 2 or
/// more lines ... the processor/cache interface must be able to treat this as
/// a separate transaction for each line involved."
///
/// Yields `(piece_addr, piece_len)` pairs covering the access, each entirely
/// inside one line, lazily: splitting allocates nothing.
///
/// # Examples
///
/// ```
/// use cache_array::split_line_crossers;
///
/// // An 8-byte access starting 4 bytes before a 16-byte line boundary.
/// let pieces: Vec<_> = split_line_crossers(12, 8, 16).collect();
/// assert_eq!(pieces, vec![(12, 4), (16, 4)]);
/// ```
///
/// # Panics
///
/// Panics if `line_size` is not a power of two.
pub fn split_line_crossers(
    addr: u64,
    size: usize,
    line_size: usize,
) -> impl Iterator<Item = (u64, usize)> {
    assert!(
        line_size.is_power_of_two(),
        "line size must be a power of two"
    );
    let mut cur = addr;
    let mut remaining = size;
    std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        let in_line = (line_size - (cur & (line_size as u64 - 1)) as usize).min(remaining);
        let piece = (cur, in_line);
        cur = cur.wrapping_add(in_line as u64);
        remaining -= in_line;
        Some(piece)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pieces(addr: u64, size: usize, line_size: usize) -> Vec<(u64, usize)> {
        split_line_crossers(addr, size, line_size).collect()
    }

    #[test]
    fn split_round_trips_through_reassemble() {
        let map = AddressMap::new(64, 128);
        for addr in [0u64, 0x40, 0x12345678, u64::from(u32::MAX)] {
            let (tag, set, offset) = map.split(addr);
            assert_eq!(map.reassemble(tag, set) + offset as u64, addr);
            assert_eq!(map.reassemble(tag, set), map.line_addr(addr));
        }
    }

    #[test]
    fn single_set_caches_have_no_set_bits() {
        let map = AddressMap::new(16, 1);
        let (tag, set, _) = map.split(0xABCDE);
        assert_eq!(set, 0);
        assert_eq!(tag, 0xABCDE >> 4);
    }

    #[test]
    fn aligned_access_does_not_split() {
        assert_eq!(pieces(32, 8, 16), vec![(32, 8)]);
        assert_eq!(pieces(0, 16, 16), vec![(0, 16)]);
    }

    #[test]
    fn crossers_split_at_every_boundary() {
        // 40 bytes spanning three 16-byte lines.
        assert_eq!(pieces(8, 40, 16), vec![(8, 8), (16, 16), (32, 16)]);
    }

    #[test]
    fn zero_size_access_is_empty() {
        assert!(pieces(5, 0, 16).is_empty());
    }

    #[test]
    fn pieces_cover_exactly_the_access() {
        for addr in 0..64u64 {
            for size in 1..48usize {
                let pieces = pieces(addr, size, 16);
                let total: usize = pieces.iter().map(|&(_, l)| l).sum();
                assert_eq!(total, size);
                let mut cur = addr;
                for &(a, l) in &pieces {
                    assert_eq!(a, cur, "pieces must be contiguous");
                    assert_eq!(a / 16, (a + l as u64 - 1) / 16, "piece crosses a line");
                    cur += l as u64;
                }
            }
        }
    }
}
