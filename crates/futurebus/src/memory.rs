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
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::Arc;

/// A multiplicative hasher for line addresses. Line lookups sit on the
/// per-access paths (bridge directories on every snoop), where the
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
/// an incremental consistency audit re-checks.
///
/// One log serves a whole machine: a clone is a handle to the same lines,
/// which the auditor hands to every component only while it audits, so
/// unaudited runs pay one untaken branch per change, and the audit drains
/// one list instead of visiting every component. A machine's components
/// change one access at a time, so relaxed atomics are all the sharing
/// needs, and a fixed capacity means logging never allocates. A change too
/// broad to list line by line — a retired cache, a dropped directory, or
/// more lines than the log holds — is *wholesale* and asks for a full audit
/// instead.
#[derive(Clone, Debug, Default)]
pub struct ChangeLog(Arc<LogLines>);

/// The shared storage of a [`ChangeLog`].
#[derive(Debug, Default)]
struct LogLines {
    len: AtomicUsize,
    wholesale: AtomicBool,
    lines: [AtomicU64; ChangeLog::CAPACITY],
}

impl ChangeLog {
    /// The lines a log holds between drains; one more is a wholesale change.
    pub const CAPACITY: usize = 32;

    /// Records a change to the line at `line` (line-aligned), unless it
    /// repeats the last line logged: an access usually changes one line in
    /// several places, and the audit re-checks it once. Cold because
    /// unaudited runs never get here: the logging points then cost their
    /// hot callers one branch and no code (measured on `flat-write`).
    #[cold]
    pub fn line(&self, line: LineAddr) {
        let log = &*self.0;
        let len = log.len.load(Relaxed);
        if len > 0 && log.lines[len - 1].load(Relaxed) == line {
            return;
        }
        match log.lines.get(len) {
            Some(slot) => {
                slot.store(line, Relaxed);
                log.len.store(len + 1, Relaxed);
            }
            None => log.wholesale.store(true, Relaxed),
        }
    }

    /// Whether nothing was logged since the last drain: no line, and no
    /// wholesale change.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.len.load(Relaxed) == 0 && !self.0.wholesale.load(Relaxed)
    }

    /// Records a change too broad to list line by line.
    pub fn wholesale(&self) {
        self.0.wholesale.store(true, Relaxed);
    }

    /// Appends the logged lines to `out`, in logging order, and empties the
    /// log. Returns true when a wholesale change was logged.
    #[inline]
    pub fn drain_into(&self, out: &mut Vec<LineAddr>) -> bool {
        let log = &*self.0;
        let len = log.len.load(Relaxed);
        out.extend(log.lines[..len].iter().map(|line| line.load(Relaxed)));
        log.len.store(0, Relaxed);
        let wholesale = log.wholesale.load(Relaxed);
        if wholesale {
            log.wholesale.store(false, Relaxed);
        }
        wholesale
    }
}

/// The bytes of a slab entry's line address, ahead of the line's bytes.
const KEY: usize = 8;

/// A sparse, line-granular main memory. Untouched lines read as zero.
///
/// Written lines live in one growable byte slab, in first-write order, each
/// entry its line's address and then its `line_size` bytes, found through
/// an index of entry numbers: a write overwrites its line in place, and
/// only a line's first write grows the slab.
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
    /// The index of written lines: a power-of-two number of places (none
    /// until the first line), each 0 (free) or `n`, for slab entry `n - 1`.
    places: Vec<u32>,
    /// `64 - log2(places.len())`: the shift that keeps a hash's top bits.
    shift: u32,
    /// How many places the first write gives the index.
    first_places: usize,
    /// The written lines: each one's address, then its bytes.
    slab: Vec<u8>,
    /// Lines written: the slab's entries.
    lines: usize,
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
        Self::with_capacity(line_size, 0)
    }

    /// An empty memory whose index, once the first line is written, has
    /// room for `lines` lines before it grows again. Nothing is allocated
    /// before that write, so building the memory costs no more. The slab
    /// still grows with the lines written: presizing it too measured
    /// slower.
    ///
    /// # Panics
    ///
    /// As [`new`](SparseMemory::new).
    #[must_use]
    pub fn with_capacity(line_size: usize, lines: usize) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two, got {line_size}"
        );
        SparseMemory {
            line_size,
            places: Vec::new(),
            shift: 0,
            first_places: (2 * lines).next_power_of_two().max(16),
            slab: Vec::new(),
            lines: 0,
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
    #[inline]
    pub fn align(&self, addr: u64) -> LineAddr {
        addr & !(self.line_size as u64 - 1)
    }

    /// True when `addr` is line-aligned.
    #[must_use]
    pub fn is_aligned(&self, addr: u64) -> bool {
        self.align(addr) == addr
    }

    /// Reads a full line, borrowed. Untouched lines read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned.
    #[must_use]
    pub fn read_line(&mut self, addr: LineAddr) -> &[u8] {
        assert!(self.is_aligned(addr), "unaligned line read at {addr:#x}");
        self.reads += 1;
        self.peek(addr)
    }

    /// Borrows the line containing `addr` without counting a memory access
    /// (for checkers and fallbacks). Untouched lines read as zero.
    #[must_use]
    #[inline]
    pub fn peek(&self, addr: u64) -> &[u8] {
        self.slot_line(self.slot(addr))
    }

    /// The slot of the line containing `addr`: where its bytes start in the
    /// slab, or `None` for a line never written. A line keeps its slot from
    /// its first write on, so a caller may keep the slot instead of probing
    /// again.
    #[must_use]
    #[inline]
    pub fn slot(&self, addr: u64) -> Option<usize> {
        if self.lines == 0 {
            return None;
        }
        self.probe(self.align(addr)).ok()
    }

    /// Where the bytes of `line` start in the slab, or else the free place
    /// of the index where it would go. The index is open-addressed and at
    /// most half full: a probe starts at the line's Fibonacci hash and
    /// walks on one place at a time. Each slab entry starts with its line's
    /// address, so the key a probe compares sits right beside the bytes the
    /// lookup reads next; no control bytes, no second key array.
    #[inline]
    fn probe(&self, line: LineAddr) -> Result<usize, usize> {
        let mask = self.places.len() - 1;
        let mut at = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let entry = match self.places[at] {
                0 => return Err(at),
                n => (n as usize - 1) * (KEY + self.line_size),
            };
            if self.key(entry) == line {
                return Ok(entry + KEY);
            }
            at = (at + 1) & mask;
        }
    }

    /// The line address of the slab entry at `entry`.
    #[inline]
    fn key(&self, entry: usize) -> LineAddr {
        let bytes = self.slab[entry..entry + KEY].try_into();
        LineAddr::from_ne_bytes(bytes.expect("a slab entry starts with its address"))
    }

    /// Rebuilds the index with `size` places (a power of two) and places
    /// every written line in it. Its layout depends on nothing but the
    /// lines written, in order, so it repeats exactly from run to run.
    fn reindex(&mut self, size: usize) {
        self.places = vec![0; size];
        self.shift = 64 - size.trailing_zeros();
        let stride = KEY + self.line_size;
        for n in 1..=self.lines {
            let line = self.key((n - 1) * stride);
            let free = self.probe(line).expect_err("written lines are distinct");
            self.places[free] = n as u32; // checked when the line was added
        }
    }

    /// The line in `slot` (see [`slot`](SparseMemory::slot)), borrowed;
    /// `None` is an unwritten line, all zero.
    #[must_use]
    #[inline]
    pub fn slot_line(&self, slot: Option<usize>) -> &[u8] {
        match slot {
            Some(start) => &self.slab[start..start + self.line_size],
            None => &self.zero,
        }
    }

    /// The bytes of the line at `addr` for writing, and its slot, giving a
    /// line its slab space (zeroed) on its first write.
    fn line_mut(&mut self, addr: LineAddr) -> (&mut [u8], usize) {
        if 2 * (self.lines + 1) > self.places.len() {
            self.reindex((2 * self.places.len()).max(self.first_places));
        }
        let start = match self.probe(addr) {
            Ok(start) => start,
            Err(free) => {
                self.lines += 1;
                self.places[free] = u32::try_from(self.lines).expect("under 2^32 lines");
                self.slab.extend_from_slice(&addr.to_ne_bytes());
                let start = self.slab.len();
                self.slab.resize(start + self.line_size, 0);
                start
            }
        };
        (&mut self.slab[start..start + self.line_size], start)
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

    /// Logs the lines written from here on in `log` (none for `None`); see
    /// [`ChangeLog`].
    pub fn track_changes(&mut self, log: Option<&ChangeLog>) {
        self.changes = log.cloned();
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
        if let Some(log) = &self.changes {
            log.line(addr);
        }
        self.line_mut(addr).0.copy_from_slice(data);
    }

    /// Writes part of a line (a word write from a write-through or
    /// non-caching master, or a broadcast update). Returns the line's
    /// [`slot`](SparseMemory::slot).
    ///
    /// # Panics
    ///
    /// Panics if the write would cross the end of the line.
    pub fn write_bytes(&mut self, addr: LineAddr, offset: usize, bytes: &[u8]) -> usize {
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
        if let Some(log) = &self.changes {
            log.line(addr);
        }
        let (line, slot) = self.line_mut(addr);
        line[offset..offset + bytes.len()].copy_from_slice(bytes);
        slot
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
        self.lines
    }

    /// Addresses of every resident line, in first-write order: for callers
    /// that sort what they collect anyway.
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        let stride = KEY + self.line_size;
        (0..self.lines).map(move |entry| self.key(entry * stride))
    }

    /// Addresses of every resident line, sorted ascending: for callers that
    /// need address order (fault injection, checkers).
    #[must_use]
    pub fn line_addrs(&self) -> Vec<LineAddr> {
        let mut addrs: Vec<LineAddr> = self.lines().collect();
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
        assert_eq!(mem.read_line(0), &[7; 8]);
    }

    #[test]
    fn rewrites_reuse_the_line_in_place() {
        let mut mem = SparseMemory::new(8);
        mem.write_line(0x10, &[1; 8]);
        mem.write_bytes(0x20, 2, &[5]);
        mem.write_line(0x10, &[2; 8]);
        mem.write_bytes(0x20, 3, &[6]);
        assert_eq!(mem.resident_lines(), 2);
        assert_eq!(
            mem.slab.len(),
            2 * (KEY + 8),
            "only first writes grow the slab"
        );
        assert_eq!(mem.peek(0x10), &[2; 8]);
        assert_eq!(mem.peek(0x20), &[0, 0, 5, 6, 0, 0, 0, 0]);
        assert_eq!(mem.peek(0x30), &[0; 8], "untouched");
    }

    #[test]
    fn lines_are_found_through_index_growth_and_collisions() {
        let mut mem = SparseMemory::new(32);
        // Lines a table size apart share their low bits; the hash spreads
        // them, and linear probing resolves what collides.
        let lines: Vec<LineAddr> = (0..300u64).map(|i| (i * 0x1000) ^ (i % 7) << 5).collect();
        for (n, &line) in lines.iter().enumerate() {
            assert_eq!(mem.slot(line), None, "{line:#x} is not written yet");
            mem.write_bytes(line, 0, &[n as u8]);
            assert!(2 * mem.lines <= mem.places.len(), "at most half full");
        }
        for (n, &line) in lines.iter().enumerate() {
            assert_eq!(mem.peek(line)[0], n as u8);
            assert_eq!(
                mem.slot(line),
                Some(n * (KEY + 32) + KEY),
                "first-write order"
            );
        }
        assert_eq!(mem.resident_lines(), lines.len());
        assert!(
            mem.lines().eq(lines.iter().copied()),
            "listed in write order"
        );
        let mut presized = SparseMemory::with_capacity(32, 300);
        assert!(presized.places.is_empty(), "nothing before the first write");
        presized.write_bytes(0, 0, &[1]);
        assert!(presized.places.len() >= 600, "room for 300 lines");
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
        let log = ChangeLog::default();
        mem.track_changes(Some(&log));
        mem.write_bytes(0x20, 3, &[1]);
        mem.write_line(0x30, &[2; 16]);
        let mut out = Vec::new();
        assert!(!log.drain_into(&mut out));
        assert_eq!(out, vec![0x20, 0x30]);
        out.clear();
        log.drain_into(&mut out);
        assert!(out.is_empty(), "a drain empties the log");
        mem.track_changes(None);
        mem.write_line(0x40, &[3; 16]);
        log.drain_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn a_log_skips_only_consecutive_repeats() {
        let log = ChangeLog::default();
        for line in [0xA0, 0xA0, 0xB0, 0xA0] {
            log.line(line);
        }
        let mut out = Vec::new();
        assert!(!log.drain_into(&mut out));
        assert_eq!(
            out,
            vec![0xA0, 0xB0, 0xA0],
            "a distinct line is never hidden"
        );
        // A drain forgets the last line: logged again, it is drained again.
        log.line(0xA0);
        assert!(!log.drain_into(&mut out));
        assert_eq!(out, vec![0xA0, 0xB0, 0xA0, 0xA0]);
    }

    #[test]
    fn clones_share_one_log_and_overflow_is_wholesale() {
        let log = ChangeLog::default();
        let clone = log.clone();
        log.line(0x10);
        clone.line(0x10);
        clone.line(0x20);
        let mut out = Vec::new();
        assert!(!clone.drain_into(&mut out));
        assert_eq!(
            out,
            vec![0x10, 0x20],
            "one list, repeats skipped across clones"
        );
        for line in 0..=ChangeLog::CAPACITY as u64 {
            log.line(line * 0x10);
        }
        out.clear();
        assert!(
            log.drain_into(&mut out),
            "one line too many asks for a full audit"
        );
        assert_eq!(out.len(), ChangeLog::CAPACITY);
        assert!(!log.drain_into(&mut out), "the drain cleared the flag");
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
