//! Tracing for the per-layer run.
//!
//! Spans are recorded from the benchmark's own code, around each call into a
//! library layer: machine build, stream set-up, the run call, the final
//! `verify()`, and — through the forwarding wrappers [`TracedPolicy`] and
//! [`TracedStream`] — every `Protocol::try_on_local` / `try_on_bus` decision
//! and every `RefStream::next_access`. The counting [`CountingAlloc`] charges
//! each heap allocation to the innermost open span.
//!
//! Counts (calls, allocations, bytes) are exact. Per-call spans are too short
//! and too many to time one by one without distorting the run, so they are
//! timed on one call in [`SAMPLE_EVERY`] (a deterministic choice) and their
//! total is estimated from the sampled mean.
//!
//! Everything lives in thread-locals: the benchmark is single-threaded, and
//! `cargo test` runs tests on parallel threads that must not share counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

use moesi::{
    BusEvent, BusReaction, CacheKind, IllegalCell, LineState, LocalAction, LocalCtx, LocalEvent,
    PolicyTable, Protocol, SnoopCtx,
};
use mpsim::{Access, RefStream};

/// The layer a span covers. `Bench` is the benchmark's own bookkeeping: the
/// slot allocations land in while no layer span is open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code.
    Bench,
    /// `SystemBuilder::build` / `TreeBuilder::build`.
    Build,
    /// Constructing the seeded reference streams.
    Streams,
    /// `System::run_timed` / `HierarchicalSystem::run`.
    Run,
    /// `Protocol::try_on_local` (and `on_local`).
    Local,
    /// `Protocol::try_on_bus` (and `on_bus`).
    Snoop,
    /// `RefStream::next_access`.
    Next,
    /// The post-run `verify()`.
    Verify,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 8;

impl Layer {
    /// Every layer, in slot order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Bench,
        Layer::Build,
        Layer::Streams,
        Layer::Run,
        Layer::Local,
        Layer::Snoop,
        Layer::Next,
        Layer::Verify,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Build => "build",
            Layer::Streams => "streams",
            Layer::Run => "run",
            Layer::Local => "moesi.try_on_local",
            Layer::Snoop => "moesi.try_on_bus",
            Layer::Next => "workload.next_access",
            Layer::Verify => "verify",
        }
    }

    /// True for the per-call layers whose timing is sampled.
    pub fn sampled(self) -> bool {
        matches!(self, Layer::Local | Layer::Snoop | Layer::Next)
    }

    /// The enclosing span: per-call spans run inside the run call, every
    /// other span directly under its job.
    pub fn parent(self) -> Layer {
        if self.sampled() {
            Layer::Run
        } else {
            Layer::Bench
        }
    }
}

/// One in this many per-call spans is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// What one layer did: exact counts plus (sampled) host time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Spans entered.
    pub calls: u64,
    /// Spans whose duration was measured (every coarse span, one in
    /// [`SAMPLE_EVERY`] per-call spans).
    pub timed: u64,
    /// Summed duration of the timed spans, in host ns.
    pub ns: u64,
    /// Heap allocations (including reallocations) charged to the layer.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Tally {
    const ZERO: Tally = Tally {
        calls: 0,
        timed: 0,
        ns: 0,
        allocs: 0,
        bytes: 0,
    };

    /// The exact counts, for comparison between runs. `timed` is left out:
    /// which calls get sampled depends on the thread's call history.
    pub fn counts(&self) -> [u64; 3] {
        [self.calls, self.allocs, self.bytes]
    }

    fn minus(self, earlier: Tally) -> Tally {
        Tally {
            calls: self.calls - earlier.calls,
            timed: self.timed - earlier.timed,
            ns: self.ns - earlier.ns,
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.ns += other.ns;
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }

    /// Estimated total host ns over all calls: the sampled mean, less the
    /// timer's own cost, times the call count.
    pub fn estimated_ns(&self, timer_ns: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let mean = (self.ns as f64 / self.timed as f64 - timer_ns).max(0.0);
        mean * self.calls as f64
    }
}

/// One recorded span. Coarse spans (build, streams, run, verify) are one
/// record each; a job's per-call spans are folded into one record per layer.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// The job the span belongs to; every span of one job shares it.
    pub job: u64,
    /// The layer.
    pub layer: Layer,
    /// Start, host ns since the first span of the process.
    pub start_ns: u64,
    /// What happened inside the span.
    pub tally: Tally,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static OPEN: Cell<usize> = const { Cell::new(0) };
    static TALLY: [Cell<Tally>; LAYERS] = const { [const { Cell::new(Tally::ZERO) }; LAYERS] };
    static RECORDS: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn bump(layer: usize, f: impl FnOnce(&mut Tally)) {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = TALLY.try_with(|t| {
        let mut v = t[layer].get();
        f(&mut v);
        t[layer].set(v);
    });
}

/// Switches tracing on or off for this thread.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

fn enabled() -> bool {
    ON.with(Cell::get)
}

/// This thread's running tallies, one per layer.
pub fn snapshot() -> [Tally; LAYERS] {
    TALLY.with(|t| std::array::from_fn(|i| t[i].get()))
}

/// Layer-by-layer difference of two snapshots.
pub fn delta(after: &[Tally; LAYERS], before: &[Tally; LAYERS]) -> [Tally; LAYERS] {
    std::array::from_fn(|i| after[i].minus(before[i]))
}

/// Takes every span recorded on this thread so far.
pub fn take_records() -> Vec<SpanRecord> {
    RECORDS.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Restores the enclosing span on drop, so a panic inside a span (a failed
/// job) does not leave allocations charged to it.
struct Open(usize);

impl Open {
    fn enter(layer: Layer) -> Self {
        Open(OPEN.with(|c| c.replace(layer as usize)))
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        OPEN.with(|c| c.set(self.0));
    }
}

/// Runs `f` inside a recorded coarse span of `job`.
pub fn span<R>(job: u64, layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let before = TALLY.with(|t| t[layer as usize].get());
    let start = Instant::now();
    let r = {
        let _open = Open::enter(layer);
        f()
    };
    let ns = start.elapsed().as_nanos() as u64;
    bump(layer as usize, |t| {
        t.calls += 1;
        t.timed += 1;
        t.ns += ns;
    });
    let tally = TALLY.with(|t| t[layer as usize].get()).minus(before);
    let start_ns = start.duration_since(epoch).as_nanos() as u64;
    record([SpanRecord {
        job,
        layer,
        start_ns,
        tally,
    }]);
    r
}

/// Keeps span records; growing the buffer is the benchmark's own work.
fn record(spans: impl IntoIterator<Item = SpanRecord>) {
    let _bench = Open::enter(Layer::Bench);
    RECORDS.with(|r| r.borrow_mut().extend(spans));
}

/// Records one folded span per per-call layer for `job`: what those layers
/// did since `before` (taken at the start of the job's run span).
pub fn fold_calls(job: u64, start_ns: u64, before: &[Tally; LAYERS]) {
    if !enabled() {
        return;
    }
    let d = delta(&snapshot(), before);
    record(
        Layer::ALL
            .into_iter()
            .filter(|l| l.sampled())
            .map(|layer| SpanRecord {
                job,
                layer,
                start_ns,
                tally: d[layer as usize],
            }),
    );
}

/// Host ns since the first span of the process (0 before any span).
pub fn now_ns() -> u64 {
    EPOCH.get().map_or(0, |e| e.elapsed().as_nanos() as u64)
}

/// A per-call span: counted always, timed on one call in [`SAMPLE_EVERY`].
#[inline]
fn per_call<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let _open = Open::enter(layer);
    let calls = TALLY.with(|t| {
        let mut v = t[layer as usize].get();
        v.calls += 1;
        t[layer as usize].set(v);
        v.calls
    });
    if !calls.is_multiple_of(SAMPLE_EVERY) {
        return f();
    }
    let start = Instant::now();
    let r = f();
    let ns = start.elapsed().as_nanos() as u64;
    bump(layer as usize, |t| {
        t.timed += 1;
        t.ns += ns;
    });
    r
}

/// The cost of timing an empty span, in ns: subtracted from sampled per-call
/// durations. The median of many back-to-back clock reads.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Counts every allocation on the current thread into the innermost open
/// span's [`Tally`] while tracing is on; otherwise a plain pass-through to
/// the system allocator.
pub struct CountingAlloc;

fn charge(size: usize) {
    if ON.try_with(Cell::get).unwrap_or(false) {
        let open = OPEN.try_with(Cell::get).unwrap_or(0);
        bump(open, |t| {
            t.allocs += 1;
            t.bytes += size as u64;
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches only
// const-initialised, drop-free thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract and
        // `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Forwards all nine `Protocol` methods to the wrapped policy, recording a
/// per-call span around each decision. It holds no state of its own and
/// returns exactly what the inner policy returns, so it cannot change a run.
///
/// Read hits never reach it: `Fabric::read_dataless` probes residency before
/// consulting the policy, so `Layer::Local` counts misses and writes only.
pub struct TracedPolicy(pub Box<dyn Protocol + Send>);

impl Protocol for TracedPolicy {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn kind(&self) -> CacheKind {
        self.0.kind()
    }

    fn requires_bs(&self) -> bool {
        self.0.requires_bs()
    }

    fn on_local(&mut self, state: LineState, event: LocalEvent, ctx: &LocalCtx) -> LocalAction {
        per_call(Layer::Local, || self.0.on_local(state, event, ctx))
    }

    fn on_bus(&mut self, state: LineState, event: BusEvent, ctx: &SnoopCtx) -> BusReaction {
        per_call(Layer::Snoop, || self.0.on_bus(state, event, ctx))
    }

    fn try_on_local(
        &mut self,
        state: LineState,
        event: LocalEvent,
        ctx: &LocalCtx,
    ) -> Result<LocalAction, IllegalCell> {
        per_call(Layer::Local, || self.0.try_on_local(state, event, ctx))
    }

    fn try_on_bus(
        &mut self,
        state: LineState,
        event: BusEvent,
        ctx: &SnoopCtx,
    ) -> Result<BusReaction, IllegalCell> {
        per_call(Layer::Snoop, || self.0.try_on_bus(state, event, ctx))
    }

    fn policy_table(&self) -> Option<&PolicyTable> {
        self.0.policy_table()
    }

    fn table_is_exact(&self) -> bool {
        self.0.table_is_exact()
    }
}

/// Forwards `RefStream::next_access`, recording a per-call span.
pub struct TracedStream(pub Box<dyn RefStream + Send>);

impl RefStream for TracedStream {
    fn next_access(&mut self) -> Access {
        per_call(Layer::Next, || self.0.next_access())
    }
}
