//! Main memory: the default owner of every line (§3.1.3).
//!
//! "All data is said to be owned uniquely either by one and only one cache or
//! by main memory ... main memory is the default owner." Memory keeps no
//! consistency state at all: "Shared memory modules will not need to
//! distinguish valid data from invalid data; instead, caches associated with
//! each master will keep track of the invalidity of the data that resides in
//! shared memory" (§3.1.1).

use crate::transaction::LineAddr;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for line addresses. Line lookups sit on the
/// per-access paths (memory on every transaction, bridge directories on every
/// snoop, the oracle's golden image on every checked access), where the
/// default SipHash costs more than the table probe itself; a Fibonacci
/// multiply with an avalanche shift is plenty for keys that differ only in
/// their upper (line-number) bits. Unlike SipHash it has no per-process
/// seed, so a map's layout — and its allocation pattern — repeats exactly
/// from run to run. Consumers whose output depends on order still sort
/// (e.g. [`SparseMemory::line_addrs`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by line maps): FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        let mixed = (self.0 ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = mixed ^ (mixed >> 29);
    }
}

/// A map keyed by line address, hashed with [`LineHasher`].
pub type LineMap<V> = HashMap<LineAddr, V, BuildHasherDefault<LineHasher>>;

/// The line addresses whose audited state changed since the last drain: what
/// an incremental consistency audit re-checks. Components keep one only while
/// an auditor is attached, so unaudited runs pay one untaken branch per
/// change. A *wholesale* change (a retired cache, a dropped directory) is too
/// broad to list line by line and asks for a full audit instead.
#[derive(Clone, Debug, Default)]
pub struct ChangeLog {
    lines: Vec<LineAddr>,
    wholesale: bool,
}

impl ChangeLog {
    /// Records a change to the line at `line` (line-aligned). Cold because
    /// unaudited runs never get here: the logging points then cost their
    /// hot callers one branch and no code (measured on `flat-write`).
    #[cold]
    pub fn line(&mut self, line: LineAddr) {
        self.lines.push(line);
    }

    /// Records a change too broad to list line by line.
    pub fn wholesale(&mut self) {
        self.wholesale = true;
    }

    /// Appends the logged lines to `out` and empties the log, keeping its
    /// capacity. Returns true when a wholesale change was logged.
    pub fn drain_into(&mut self, out: &mut Vec<LineAddr>) -> bool {
        out.append(&mut self.lines);
        std::mem::take(&mut self.wholesale)
    }
}

/// A sparse, line-granular main memory. Untouched lines read as zero.
///
/// # Examples
///
/// ```
/// use futurebus::SparseMemory;
///
/// let mut mem = SparseMemory::new(16);
/// assert_eq!(&mem.read_line(0x40)[..4], &[0, 0, 0, 0]);
/// mem.write_bytes(0x40, 4, &[0xAB, 0xCD]);
/// assert_eq!(mem.read_line(0x40)[4], 0xAB);
/// ```
#[derive(Clone, Debug)]
pub struct SparseMemory {
    line_size: usize,
    lines: LineMap<Box<[u8]>>,
    /// What an untouched line reads as, so peeks can always lend a slice.
    zero: Box<[u8]>,
    reads: u64,
    writes: u64,
    changes: Option<ChangeLog>,
}

impl SparseMemory {
    /// Creates an empty memory with the given line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `line_size` is a non-zero power of two (the paper's
    /// §5.1 standard-line-size requirement presumes conventional sizes).
    #[must_use]
    pub fn new(line_size: usize) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two, got {line_size}"
        );
        SparseMemory {
            line_size,
            lines: LineMap::default(),
            zero: vec![0; line_size].into_boxed_slice(),
            reads: 0,
            writes: 0,
            changes: None,
        }
    }

    /// The configured line size in bytes.
    #[must_use]
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// Aligns an arbitrary byte address down to its line address.
    #[must_use]
    pub fn align(&self, addr: u64) -> LineAddr {
        addr & !(self.line_size as u64 - 1)
    }

    /// True when `addr` is line-aligned.
    #[must_use]
    pub fn is_aligned(&self, addr: u64) -> bool {
        self.align(addr) == addr
    }

    /// Reads a full line. Untouched lines are zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned.
    #[must_use]
    pub fn read_line(&mut self, addr: LineAddr) -> Box<[u8]> {
        assert!(self.is_aligned(addr), "unaligned line read at {addr:#x}");
        self.reads += 1;
        match self.lines.get(&addr) {
            Some(line) => line.clone(),
            None => vec![0; self.line_size].into_boxed_slice(),
        }
    }

    /// Borrows the line containing `addr` without counting a memory access
    /// (for checkers and fallbacks). Untouched lines read as zero.
    #[must_use]
    pub fn peek(&self, addr: u64) -> &[u8] {
        self.lines.get(&self.align(addr)).unwrap_or(&self.zero)
    }

    /// The `len` bytes at `addr`, across any number of lines, without
    /// counting a memory access — what a DMA engine reading memory directly
    /// would observe. Untouched lines read as zero.
    #[must_use]
    pub fn peek_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut cur = addr;
        while out.len() < len {
            let offset = (cur - self.align(cur)) as usize;
            let take = (self.line_size - offset).min(len - out.len());
            out.extend_from_slice(&self.peek(cur)[offset..offset + take]);
            cur += take as u64;
        }
        out
    }

    /// Starts (or stops) logging the lines written from here on; see
    /// [`ChangeLog`].
    pub fn track_changes(&mut self, on: bool) {
        self.changes = on.then(ChangeLog::default);
    }

    /// Moves the lines written since the last drain into `out` (nothing
    /// unless [`track_changes`](SparseMemory::track_changes) is on).
    pub fn drain_changes(&mut self, out: &mut Vec<LineAddr>) -> bool {
        self.changes.as_mut().is_some_and(|log| log.drain_into(out))
    }

    /// Overwrites a full line (a push / write-back).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unaligned or `data` is not exactly one line.
    pub fn write_line(&mut self, addr: LineAddr, data: &[u8]) {
        assert!(self.is_aligned(addr), "unaligned line write at {addr:#x}");
        assert_eq!(data.len(), self.line_size, "line write must be full-size");
        self.writes += 1;
        if let Some(log) = &mut self.changes {
            log.line(addr);
        }
        self.lines.insert(addr, data.into());
    }

    /// Writes part of a line (a word write from a write-through or
    /// non-caching master, or a broadcast update).
    ///
    /// # Panics
    ///
    /// Panics if the write would cross the end of the line.
    pub fn write_bytes(&mut self, addr: LineAddr, offset: usize, bytes: &[u8]) {
        assert!(
            self.is_aligned(addr),
            "unaligned partial write at {addr:#x}"
        );
        assert!(
            offset + bytes.len() <= self.line_size,
            "write {}B@+{offset} crosses line boundary (line size {})",
            bytes.len(),
            self.line_size
        );
        self.writes += 1;
        if let Some(log) = &mut self.changes {
            log.line(addr);
        }
        let line = self
            .lines
            .entry(addr)
            .or_insert_with(|| vec![0; self.line_size].into_boxed_slice());
        line[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Number of line reads served.
    #[must_use]
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of writes accepted (full-line and partial).
    #[must_use]
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of distinct lines ever written.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// Addresses of every resident line, sorted ascending. The underlying
    /// map iterates in hash order, so callers that need determinism (fault
    /// injection, checkers) must go through this.
    #[must_use]
    pub fn line_addrs(&self) -> Vec<LineAddr> {
        let mut addrs: Vec<LineAddr> = self.lines.keys().copied().collect();
        addrs.sort_unstable();
        addrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_lines_read_zero() {
        let mut mem = SparseMemory::new(32);
        assert!(mem.read_line(0).iter().all(|&b| b == 0));
        assert_eq!(mem.read_line(0x1000).len(), 32);
    }

    #[test]
    fn partial_writes_merge_into_the_line() {
        let mut mem = SparseMemory::new(16);
        mem.write_bytes(0x20, 0, &[1, 2]);
        mem.write_bytes(0x20, 14, &[3, 4]);
        let line = mem.read_line(0x20);
        assert_eq!(&line[..2], &[1, 2]);
        assert_eq!(&line[14..], &[3, 4]);
        assert!(line[2..14].iter().all(|&b| b == 0));
    }

    #[test]
    fn full_line_write_replaces_content() {
        let mut mem = SparseMemory::new(8);
        mem.write_bytes(0, 0, &[9; 8]);
        mem.write_line(0, &[7; 8]);
        assert_eq!(&mem.read_line(0)[..], &[7; 8]);
    }

    #[test]
    fn alignment_helpers() {
        let mem = SparseMemory::new(64);
        assert_eq!(mem.align(0x7F), 0x40);
        assert!(mem.is_aligned(0x80));
        assert!(!mem.is_aligned(0x81));
    }

    #[test]
    fn counters_track_traffic() {
        let mut mem = SparseMemory::new(16);
        let _ = mem.read_line(0);
        mem.write_bytes(0, 0, &[1]);
        mem.write_line(16, &[0; 16]);
        assert_eq!(mem.read_count(), 1);
        assert_eq!(mem.write_count(), 2);
        assert_eq!(mem.resident_lines(), 2);
        // peek does not count.
        let _ = mem.peek(0);
        assert_eq!(mem.read_count(), 1);
    }

    #[test]
    fn peek_borrows_and_reads_untouched_lines_as_zero() {
        let mut mem = SparseMemory::new(16);
        assert_eq!(mem.peek(0x40), &[0; 16]);
        mem.write_bytes(0x40, 2, &[9]);
        assert_eq!(mem.peek(0x4F)[2], 9, "any address in the line");
    }

    #[test]
    fn tracked_writes_are_logged_by_line() {
        let mut mem = SparseMemory::new(16);
        mem.write_line(0x10, &[1; 16]); // before tracking: not logged
        mem.track_changes(true);
        mem.write_bytes(0x20, 3, &[1]);
        mem.write_line(0x30, &[2; 16]);
        let mut out = Vec::new();
        assert!(!mem.drain_changes(&mut out));
        assert_eq!(out, vec![0x20, 0x30]);
        out.clear();
        mem.drain_changes(&mut out);
        assert!(out.is_empty(), "a drain empties the log");
        mem.track_changes(false);
        mem.write_line(0x40, &[3; 16]);
        mem.drain_changes(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn line_addrs_are_sorted() {
        let mut mem = SparseMemory::new(16);
        for addr in [0x300, 0x10, 0x200, 0x0] {
            mem.write_line(addr, &[1; 16]);
        }
        assert_eq!(mem.line_addrs(), vec![0x0, 0x10, 0x200, 0x300]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_line_sizes_are_rejected() {
        let _ = SparseMemory::new(24);
    }

    #[test]
    #[should_panic(expected = "crosses line boundary")]
    fn line_crossing_writes_are_rejected() {
        let mut mem = SparseMemory::new(16);
        mem.write_bytes(0, 14, &[0; 4]);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_reads_are_rejected() {
        let mut mem = SparseMemory::new(16);
        let _ = mem.read_line(3);
    }
}
