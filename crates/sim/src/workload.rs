//! Synthetic shared-memory reference streams.
//!
//! §5.2 grounds its protocol preferences in Archibald & Baer's simulations,
//! which "are based only on a model of program behavior \[Dubo82\]" — the
//! Dubois–Briggs model of private and shared blocks with fixed shared-access
//! and write probabilities. [`DuboisBriggs`] reproduces that model, and the
//! deterministic kernels ([`PingPong`], [`ProducerConsumer`], [`Migratory`],
//! [`ReadMostly`], [`Sequential`]) exercise the sharing patterns the
//! coherence literature names.

use moesi::rng::{Chance, SmallRng};

/// One memory access issued by a processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: usize,
    /// Write (true) or read (false).
    pub is_write: bool,
}

impl Access {
    /// A read of `size` bytes.
    #[must_use]
    pub fn read(addr: u64, size: usize) -> Self {
        Access {
            addr,
            size,
            is_write: false,
        }
    }

    /// A write of `size` bytes.
    #[must_use]
    pub fn write(addr: u64, size: usize) -> Self {
        Access {
            addr,
            size,
            is_write: true,
        }
    }
}

/// The payload of a driven workload write: the little-endian bytes of a
/// write sequence number, repeated to the access size, so the oracle can
/// tell lost or reordered updates apart. Accesses up to 64 bytes are built on
/// the stack; the drivers allocate nothing per write.
pub(crate) struct WritePayload {
    buf: [u8; 64],
    spill: Vec<u8>,
}

impl WritePayload {
    pub(crate) fn new() -> Self {
        WritePayload {
            buf: [0; 64],
            spill: Vec::new(),
        }
    }

    /// The payload for write number `seq` of `size` bytes.
    pub(crate) fn fill(&mut self, seq: u32, size: usize) -> &[u8] {
        let bytes = if size <= self.buf.len() {
            &mut self.buf[..size]
        } else {
            self.spill.resize(size, 0);
            &mut self.spill[..]
        };
        let pattern = seq.to_le_bytes();
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = pattern[i % pattern.len()];
        }
        bytes
    }
}

/// An endless per-processor reference stream.
///
/// The run drivers feed each processor through one [`Access`] slot: they call
/// [`next_into`](Self::next_into) immediately before issuing the access it
/// draws, so a run of `steps` references draws exactly `steps` accesses from
/// every stream, in the order the engine issues them, and nothing ahead.
pub trait RefStream {
    /// Produces the next access for this processor: the stream's one
    /// generator.
    fn next_access(&mut self) -> Access;

    /// Writes the next access into `slot`. Through `dyn RefStream` this is
    /// the one virtual call per reference, and its body is compiled per
    /// stream type with [`next_access`](Self::next_access) inlined.
    /// Generators keep this default; a wrapper stream forwards it.
    #[inline]
    fn next_into(&mut self, slot: &mut Access) {
        *slot = self.next_access();
    }
}

impl std::fmt::Debug for dyn RefStream + Send {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RefStream")
    }
}

/// Base address of the shared region used by all generators.
pub const SHARED_BASE: u64 = 0x1000_0000;
/// Base address of processor-private regions; each CPU gets 1 MiB.
pub const PRIVATE_BASE: u64 = 0x2000_0000;
/// Stride between per-CPU private regions.
pub const PRIVATE_STRIDE: u64 = 0x10_0000;

/// The private region base for a CPU.
#[must_use]
pub fn private_base(cpu: usize) -> u64 {
    PRIVATE_BASE + cpu as u64 * PRIVATE_STRIDE
}

/// Parameters of the Dubois–Briggs synthetic sharing model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SharingModel {
    /// Number of shared lines in the common pool.
    pub shared_lines: u64,
    /// Number of private lines per processor.
    pub private_lines: u64,
    /// Probability that a reference targets the shared pool.
    pub p_shared: f64,
    /// Probability that a reference is a write.
    pub p_write: f64,
    /// Probability of re-referencing the previous line (temporal locality).
    pub p_rereference: f64,
    /// Line size in bytes (addresses are spread across whole lines).
    pub line_size: u64,
}

impl Default for SharingModel {
    /// Archibald-&-Baer-flavoured defaults: a small hot shared pool, larger
    /// private working sets, 30% writes, mild locality.
    fn default() -> Self {
        SharingModel {
            shared_lines: 16,
            private_lines: 64,
            p_shared: 0.2,
            p_write: 0.3,
            p_rereference: 0.5,
            line_size: 32,
        }
    }
}

/// The Dubois–Briggs random reference generator for one processor.
#[derive(Debug)]
pub struct DuboisBriggs {
    cpu: usize,
    model: SharingModel,
    /// `model`'s probabilities as draw thresholds, computed once.
    p_rereference: Chance,
    p_shared: Chance,
    p_write: Chance,
    rng: SmallRng,
    last: Option<u64>,
}

impl DuboisBriggs {
    /// Creates a stream for `cpu` with the given model and seed.
    ///
    /// # Panics
    ///
    /// Panics if the model probabilities are outside `[0, 1]` or the pools
    /// are empty.
    #[must_use]
    pub fn new(cpu: usize, model: SharingModel, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&model.p_shared),
            "p_shared out of range"
        );
        assert!((0.0..=1.0).contains(&model.p_write), "p_write out of range");
        assert!(
            (0.0..=1.0).contains(&model.p_rereference),
            "p_rereference out of range"
        );
        assert!(
            model.shared_lines > 0 && model.private_lines > 0,
            "empty pools"
        );
        DuboisBriggs {
            cpu,
            model,
            p_rereference: Chance::new(model.p_rereference),
            p_shared: Chance::new(model.p_shared),
            p_write: Chance::new(model.p_write),
            rng: SmallRng::seed_from_u64(seed ^ (cpu as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            last: None,
        }
    }
}

impl RefStream for DuboisBriggs {
    #[inline(always)]
    fn next_access(&mut self) -> Access {
        let m = self.model;
        let line = if let Some(last) = self
            .last
            .filter(|_| self.rng.gen_chance(self.p_rereference))
        {
            last
        } else if self.rng.gen_chance(self.p_shared) {
            SHARED_BASE + self.rng.gen_range(0..m.shared_lines) * m.line_size
        } else {
            private_base(self.cpu) + self.rng.gen_range(0..m.private_lines) * m.line_size
        };
        self.last = Some(line);
        let offset = self.rng.gen_range(0..m.line_size / 4) * 4;
        let is_write = self.rng.gen_chance(self.p_write);
        Access {
            addr: line + offset,
            size: 4,
            is_write,
        }
    }
}

/// Two (or more) processors alternately writing one shared line — the
/// worst case for invalidation protocols, the best case for updates.
#[derive(Clone, Debug)]
pub struct PingPong {
    cpu: usize,
    line: u64,
    step: u64,
}

impl PingPong {
    /// Creates the stream for `cpu`; all participants must use the same
    /// `line` index into the shared region.
    #[must_use]
    pub fn new(cpu: usize, line: u64, line_size: u64) -> Self {
        PingPong {
            cpu,
            line: SHARED_BASE + line * line_size,
            step: 0,
        }
    }
}

impl RefStream for PingPong {
    fn next_access(&mut self) -> Access {
        self.step += 1;
        // Read then write, forever: a migratory read-modify-write per step,
        // offset by CPU so writes interleave when the system round-robins.
        if self.step % 2 == 1 {
            Access::read(self.line, 4)
        } else {
            Access::write(self.line + 4 * (self.cpu as u64 % 4), 4)
        }
    }
}

/// A producer writing a ring of shared lines that consumers read.
#[derive(Clone, Debug)]
pub struct ProducerConsumer {
    is_producer: bool,
    lines: u64,
    line_size: u64,
    cursor: u64,
}

impl ProducerConsumer {
    /// The producing stream over `lines` shared lines.
    #[must_use]
    pub fn producer(lines: u64, line_size: u64) -> Self {
        ProducerConsumer {
            is_producer: true,
            lines,
            line_size,
            cursor: 0,
        }
    }

    /// A consuming stream over the same ring.
    #[must_use]
    pub fn consumer(lines: u64, line_size: u64) -> Self {
        ProducerConsumer {
            is_producer: false,
            lines,
            line_size,
            cursor: 0,
        }
    }
}

impl RefStream for ProducerConsumer {
    fn next_access(&mut self) -> Access {
        let addr = SHARED_BASE + (self.cursor % self.lines) * self.line_size;
        self.cursor += 1;
        if self.is_producer {
            Access::write(addr, 4)
        } else {
            Access::read(addr, 4)
        }
    }
}

/// Migratory sharing: each processor performs a burst of read-modify-writes
/// on a shared block before (implicitly) passing it on.
#[derive(Clone, Debug)]
pub struct Migratory {
    cpu: usize,
    cpus: usize,
    burst: u64,
    line_size: u64,
    step: u64,
}

impl Migratory {
    /// Creates the stream for `cpu` of `cpus` with `burst` accesses per turn.
    ///
    /// # Panics
    ///
    /// Panics when `cpus` or `burst` is zero.
    #[must_use]
    pub fn new(cpu: usize, cpus: usize, burst: u64, line_size: u64) -> Self {
        assert!(cpus > 0 && burst > 0);
        Migratory {
            cpu,
            cpus,
            burst,
            line_size,
            step: 0,
        }
    }
}

impl RefStream for Migratory {
    fn next_access(&mut self) -> Access {
        let turn = (self.step / self.burst) as usize % self.cpus;
        let addr = SHARED_BASE + (self.step % 4) * self.line_size;
        let mine = turn == self.cpu;
        self.step += 1;
        if mine {
            // Read-modify-write while holding the "token".
            if self.step.is_multiple_of(2) {
                Access::write(addr, 4)
            } else {
                Access::read(addr, 4)
            }
        } else {
            // Touch private data while waiting.
            Access::read(private_base(self.cpu) + (self.step % 8) * self.line_size, 4)
        }
    }
}

/// Read-mostly sharing: everyone reads a shared table; one writer updates it
/// occasionally (every `write_period` accesses).
#[derive(Clone, Debug)]
pub struct ReadMostly {
    cpu: usize,
    writer: usize,
    lines: u64,
    line_size: u64,
    write_period: u64,
    step: u64,
}

impl ReadMostly {
    /// Creates the stream for `cpu`; `writer` is the updating processor.
    ///
    /// # Panics
    ///
    /// Panics when `lines` or `write_period` is zero.
    #[must_use]
    pub fn new(cpu: usize, writer: usize, lines: u64, line_size: u64, write_period: u64) -> Self {
        assert!(lines > 0 && write_period > 0);
        ReadMostly {
            cpu,
            writer,
            lines,
            line_size,
            write_period,
            step: 0,
        }
    }
}

impl RefStream for ReadMostly {
    fn next_access(&mut self) -> Access {
        self.step += 1;
        let addr = SHARED_BASE + (self.step.wrapping_mul(7) % self.lines) * self.line_size;
        if self.cpu == self.writer && self.step.is_multiple_of(self.write_period) {
            Access::write(addr, 4)
        } else {
            Access::read(addr, 4)
        }
    }
}

/// A private sequential sweep (uniprocessor behaviour; line-size studies).
#[derive(Clone, Debug)]
pub struct Sequential {
    cpu: usize,
    stride: u64,
    span: u64,
    p_write: Chance,
    rng: SmallRng,
    cursor: u64,
}

impl Sequential {
    /// Creates a stream sweeping `span` bytes of private memory with the
    /// given stride; `p_write` of the accesses are writes.
    #[must_use]
    pub fn new(cpu: usize, stride: u64, span: u64, p_write: f64, seed: u64) -> Self {
        assert!(stride > 0 && span >= stride);
        Sequential {
            cpu,
            stride,
            span,
            p_write: Chance::new(p_write),
            rng: SmallRng::seed_from_u64(seed),
            cursor: 0,
        }
    }
}

impl RefStream for Sequential {
    #[inline(always)]
    fn next_access(&mut self) -> Access {
        let addr = private_base(self.cpu) + (self.cursor % (self.span / self.stride)) * self.stride;
        self.cursor += 1;
        let is_write = self.rng.gen_chance(self.p_write);
        Access {
            addr,
            size: 4,
            is_write,
        }
    }
}

/// False sharing: each processor owns a *different word* of the *same* line.
///
/// No data is actually shared, but the coherence protocol cannot know that:
/// every write contends for the line. A classic pathology — update protocols
/// handle it by patching words in place; invalidation protocols ping-pong
/// the whole line.
#[derive(Clone, Debug)]
pub struct FalseSharing {
    cpu: usize,
    line: u64,
    step: u64,
    p_write_period: u64,
}

impl FalseSharing {
    /// Creates the stream for `cpu`; all participants name the same shared
    /// `line` index. Every `write_period`-th access is a write to the CPU's
    /// private word.
    ///
    /// # Panics
    ///
    /// Panics when `write_period` is zero, or when `cpu`'s 4-byte word does
    /// not fit in a `line_size`-byte line (`cpu` must be below
    /// [`max_cpus`](Self::max_cpus)).
    #[must_use]
    pub fn new(cpu: usize, line: u64, line_size: u64, write_period: u64) -> Self {
        assert!(write_period > 0);
        assert!(
            cpu < Self::max_cpus(line_size),
            "cpu {cpu}'s word does not fit in a {line_size}-byte line"
        );
        FalseSharing {
            cpu,
            line: SHARED_BASE + line * line_size,
            step: 0,
            p_write_period: write_period,
        }
    }

    /// How many processors a `line_size`-byte line gives a 4-byte word each.
    #[must_use]
    pub fn max_cpus(line_size: u64) -> usize {
        (line_size / 4) as usize
    }
}

impl RefStream for FalseSharing {
    fn next_access(&mut self) -> Access {
        self.step += 1;
        let addr = self.line + self.cpu as u64 * 4; // this CPU's own word
        if self.step.is_multiple_of(self.p_write_period) {
            Access::write(addr, 4)
        } else {
            Access::read(addr, 4)
        }
    }
}

/// Replays a fixed access list, cycling when exhausted.
#[derive(Clone, Debug)]
pub struct TraceReplay {
    trace: Vec<Access>,
    cursor: usize,
}

/// Error parsing a textual trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line (0 for an empty trace).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

impl TraceReplay {
    /// Creates a replay stream.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace.
    #[must_use]
    pub fn new(trace: Vec<Access>) -> Self {
        assert!(!trace.is_empty(), "trace must not be empty");
        TraceReplay { trace, cursor: 0 }
    }

    /// Parses the classic address-trace text format, one access per line:
    ///
    /// ```text
    /// # comment
    /// R 0x1000 4
    /// W 0x1004 8
    /// ```
    ///
    /// `R`/`W` (case-insensitive), an address (hex with `0x`, or decimal),
    /// and an optional size in bytes (default 4). Blank lines and `#`
    /// comments are skipped.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTraceError`] naming the offending line, or an
    /// empty-trace error when nothing remains after comment stripping.
    pub fn from_text(text: &str) -> Result<Self, ParseTraceError> {
        let mut trace = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let op = parts.next().expect("non-empty line has a token");
            let is_write = match op.to_ascii_uppercase().as_str() {
                "R" | "READ" => false,
                "W" | "WRITE" => true,
                other => {
                    return Err(ParseTraceError {
                        line: line_no,
                        message: format!("expected R or W, got `{other}`"),
                    })
                }
            };
            let addr_text = parts.next().ok_or_else(|| ParseTraceError {
                line: line_no,
                message: "missing address".to_string(),
            })?;
            let addr = parse_u64(addr_text).ok_or_else(|| ParseTraceError {
                line: line_no,
                message: format!("bad address `{addr_text}`"),
            })?;
            let size = match parts.next() {
                None => 4,
                Some(s) => parse_u64(s)
                    .filter(|&v| v > 0)
                    .ok_or_else(|| ParseTraceError {
                        line: line_no,
                        message: format!("bad size `{s}`"),
                    })? as usize,
            };
            if let Some(extra) = parts.next() {
                return Err(ParseTraceError {
                    line: line_no,
                    message: format!("unexpected trailing `{extra}`"),
                });
            }
            trace.push(Access {
                addr,
                size,
                is_write,
            });
        }
        if trace.is_empty() {
            return Err(ParseTraceError {
                line: 0,
                message: "trace contains no accesses".to_string(),
            });
        }
        Ok(TraceReplay { trace, cursor: 0 })
    }

    /// The parsed accesses.
    #[must_use]
    pub fn accesses(&self) -> &[Access] {
        &self.trace
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl RefStream for TraceReplay {
    fn next_access(&mut self) -> Access {
        let a = self.trace[self.cursor % self.trace.len()];
        self.cursor += 1;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dubois_briggs_respects_its_probabilities() {
        let model = SharingModel {
            p_shared: 0.5,
            p_write: 0.25,
            p_rereference: 0.0,
            ..SharingModel::default()
        };
        let mut s = DuboisBriggs::new(0, model, 42);
        let n = 20_000;
        let mut shared = 0;
        let mut writes = 0;
        for _ in 0..n {
            let a = s.next_access();
            if a.addr >= SHARED_BASE && a.addr < PRIVATE_BASE {
                shared += 1;
            }
            if a.is_write {
                writes += 1;
            }
        }
        let shared_frac = shared as f64 / n as f64;
        let write_frac = writes as f64 / n as f64;
        assert!(
            (shared_frac - 0.5).abs() < 0.03,
            "shared frac {shared_frac}"
        );
        assert!((write_frac - 0.25).abs() < 0.03, "write frac {write_frac}");
    }

    #[test]
    fn dubois_briggs_stays_within_its_pools() {
        let model = SharingModel::default();
        let mut s = DuboisBriggs::new(2, model, 7);
        for _ in 0..5_000 {
            let a = s.next_access();
            let in_shared = a.addr >= SHARED_BASE
                && a.addr < SHARED_BASE + model.shared_lines * model.line_size;
            let pb = private_base(2);
            let in_private = a.addr >= pb && a.addr < pb + model.private_lines * model.line_size;
            assert!(in_shared || in_private, "stray address {:#x}", a.addr);
            assert_eq!(a.size, 4);
            assert_eq!(a.addr % 4, 0, "word aligned");
        }
    }

    #[test]
    fn distinct_cpus_use_distinct_private_regions() {
        assert_ne!(private_base(0), private_base(1));
        let mut a = DuboisBriggs::new(
            0,
            SharingModel {
                p_shared: 0.0,
                ..Default::default()
            },
            1,
        );
        let mut b = DuboisBriggs::new(
            1,
            SharingModel {
                p_shared: 0.0,
                ..Default::default()
            },
            1,
        );
        for _ in 0..100 {
            let ra = a.next_access();
            let rb = b.next_access();
            assert!(ra.addr < private_base(1));
            assert!(rb.addr >= private_base(1));
        }
    }

    #[test]
    fn ping_pong_alternates_read_write_on_one_line() {
        let mut s = PingPong::new(0, 3, 32);
        let a = s.next_access();
        let b = s.next_access();
        assert!(!a.is_write);
        assert!(b.is_write);
        assert_eq!(a.addr & !31, b.addr & !31, "same line");
        assert_eq!(a.addr & !31, SHARED_BASE + 3 * 32);
    }

    #[test]
    fn producer_writes_consumer_reads_the_same_ring() {
        let mut p = ProducerConsumer::producer(4, 32);
        let mut c = ProducerConsumer::consumer(4, 32);
        for _ in 0..8 {
            let w = p.next_access();
            let r = c.next_access();
            assert!(w.is_write);
            assert!(!r.is_write);
            assert_eq!(w.addr, r.addr);
        }
    }

    #[test]
    fn migratory_writes_shared_only_on_own_turn() {
        let mut s = Migratory::new(1, 2, 4, 32);
        for step in 0..32 {
            let a = s.next_access();
            let my_turn = (step / 4) % 2 == 1;
            if a.is_write {
                assert!(my_turn, "wrote shared data off-turn at step {step}");
                assert!(a.addr >= SHARED_BASE && a.addr < PRIVATE_BASE);
            }
        }
    }

    #[test]
    fn read_mostly_writes_come_only_from_the_writer() {
        let mut w = ReadMostly::new(0, 0, 8, 32, 10);
        let mut r = ReadMostly::new(1, 0, 8, 32, 10);
        let writer_writes = (0..100).filter(|_| w.next_access().is_write).count();
        let reader_writes = (0..100).filter(|_| r.next_access().is_write).count();
        assert_eq!(writer_writes, 10);
        assert_eq!(reader_writes, 0);
    }

    #[test]
    fn sequential_cycles_through_its_span() {
        let mut s = Sequential::new(0, 16, 64, 0.0, 9);
        let addrs: Vec<u64> = (0..8).map(|_| s.next_access().addr).collect();
        let base = private_base(0);
        assert_eq!(
            addrs,
            vec![
                base,
                base + 16,
                base + 32,
                base + 48,
                base,
                base + 16,
                base + 32,
                base + 48
            ]
        );
    }

    #[test]
    fn false_sharing_stays_within_one_line_distinct_words() {
        let mut a = FalseSharing::new(0, 2, 32, 4);
        let mut b = FalseSharing::new(1, 2, 32, 4);
        for _ in 0..20 {
            let ra = a.next_access();
            let rb = b.next_access();
            assert_eq!(ra.addr & !31, rb.addr & !31, "same line");
            assert_ne!(ra.addr, rb.addr, "different words");
        }
    }

    #[test]
    fn false_sharing_write_period() {
        let mut s = FalseSharing::new(0, 0, 32, 4);
        let writes = (0..40).filter(|_| s.next_access().is_write).count();
        assert_eq!(writes, 10);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn false_sharing_rejects_too_many_cpus() {
        let _ = FalseSharing::new(8, 0, 32, 4);
    }

    #[test]
    fn trace_text_parses_the_classic_format() {
        let t = TraceReplay::from_text("# warm-up\nR 0x1000\nW 0x1004 8  # store\n\nread 256 2\n")
            .expect("valid trace");
        assert_eq!(
            t.accesses(),
            &[
                Access::read(0x1000, 4),
                Access::write(0x1004, 8),
                Access::read(256, 2),
            ]
        );
    }

    #[test]
    fn trace_text_reports_errors_with_line_numbers() {
        let err = TraceReplay::from_text("R 0x10\nX 0x20\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("expected R or W"));

        let err = TraceReplay::from_text("R\n").unwrap_err();
        assert!(err.message.contains("missing address"));

        let err = TraceReplay::from_text("R zzz\n").unwrap_err();
        assert!(err.message.contains("bad address"));

        let err = TraceReplay::from_text("W 0x10 0\n").unwrap_err();
        assert!(err.message.contains("bad size"));

        let err = TraceReplay::from_text("W 0x10 4 junk\n").unwrap_err();
        assert!(err.message.contains("trailing"));

        let err = TraceReplay::from_text("# only comments\n").unwrap_err();
        assert_eq!(err.line, 0);
    }

    #[test]
    fn trace_replay_cycles() {
        let mut t = TraceReplay::new(vec![Access::read(0, 4), Access::write(8, 4)]);
        assert_eq!(t.next_access(), Access::read(0, 4));
        assert_eq!(t.next_access(), Access::write(8, 4));
        assert_eq!(t.next_access(), Access::read(0, 4));
    }

    #[test]
    fn same_seed_reproduces_the_stream() {
        let model = SharingModel::default();
        let mut a = DuboisBriggs::new(3, model, 77);
        let mut b = DuboisBriggs::new(3, model, 77);
        for _ in 0..100 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }
}
