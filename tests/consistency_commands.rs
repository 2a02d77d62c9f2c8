//! §6: "Proper mechanisms must also be defined for issuing commands across
//! the bus to cause other caches to become consistent with main memory."
//! These tests exercise `System::make_all_consistent` — the DMA-preparation
//! command — and the bus trace.

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::TraceKind;
use moesi::protocols::{moesi_invalidating, moesi_preferred};
use moesi::LineState::{Exclusive, Owned, Shareable};
use mpsim::workload::{DuboisBriggs, SharingModel};
use mpsim::{RefStream, System, SystemBuilder};

const LINE: usize = 32;

fn cfg() -> CacheConfig {
    CacheConfig::new(2048, LINE, 2, ReplacementKind::Lru)
}

fn sys(n: usize) -> System {
    let mut b = SystemBuilder::new(LINE).checking(true);
    for _ in 0..n {
        b = b.cache(Box::new(moesi_preferred()), cfg());
    }
    b.build()
}

#[test]
fn make_memory_consistent_pushes_the_owner() {
    let mut sys = sys(2);
    sys.write(0, 0x100, &[7; 4]); // cpu0: M, memory stale
    let mem_writes = sys.bus_stats().memory_writes;
    assert_eq!(sys.make_all_consistent(), 1);
    assert_eq!(sys.bus_stats().memory_writes, mem_writes + 1);
    // The copy is retained, now unowned and clean.
    assert_eq!(sys.state_of(0, 0x100), Exclusive);
    assert_eq!(sys.make_all_consistent(), 0, "already consistent");
    sys.verify().expect("consistent");
}

#[test]
fn make_memory_consistent_handles_owned_with_sharers() {
    let mut sys = sys(3);
    sys.write(0, 0x100, &[1; 4]);
    sys.read(1, 0x100, 4); // cpu0: O, cpu1: S
    assert_eq!(sys.state_of(0, 0x100), Owned);
    assert_eq!(sys.make_all_consistent(), 1);
    // Pass with CH from cpu1 resolves CH:S/E to S.
    assert_eq!(sys.state_of(0, 0x100), Shareable);
    assert_eq!(sys.state_of(1, 0x100), Shareable);
    sys.verify().expect("consistent");
}

#[test]
fn make_all_consistent_sweeps_every_owned_line() {
    let mut sys = SystemBuilder::new(LINE)
        .checking(true)
        .cache(Box::new(moesi_preferred()), cfg())
        .cache(Box::new(moesi_invalidating()), cfg())
        .build();
    // Dirty a handful of lines from both CPUs.
    for i in 0..6u64 {
        sys.write((i % 2) as usize, 0x1000 + i * LINE as u64, &[i as u8; 4]);
    }
    let pushed = sys.make_all_consistent();
    assert_eq!(pushed, 6);
    // No owned lines remain anywhere.
    for cpu in 0..sys.nodes() {
        if let Some(cache) = sys.controller(cpu).cache() {
            assert!(cache.iter().all(|(_, e)| !e.state.is_owned()));
        }
    }
    assert_eq!(sys.make_all_consistent(), 0, "idempotent");
    sys.verify().expect("consistent");
}

#[test]
fn make_all_consistent_enables_uncached_dma_style_reads() {
    // The use case §6 gestures at: an I/O device that reads memory directly
    // (no snooping at all) sees current data after the sweep.
    let mut sys = sys(2);
    sys.write(0, 0x100, &[9; 4]);
    sys.write(1, 0x200, &[8; 4]);
    sys.make_all_consistent();
    // Peek memory directly — this bypasses coherence entirely.
    let m1 = sys.memory_peek(0x100, 4);
    let m2 = sys.memory_peek(0x200, 4);
    assert_eq!(m1, vec![9; 4]);
    assert_eq!(m2, vec![8; 4]);
}

#[test]
fn trace_records_the_transaction_stream() {
    let mut sys = sys(2);
    sys.enable_trace(64);
    sys.read(0, 0x100, 4); // READ
    sys.write(0, 0x100, &[1; 4]); // silent (no record)
    sys.read(1, 0x100, 4); // READ served by intervention
    sys.write(1, 0x100, &[2; 4]); // broadcast WRITE
    let kinds: Vec<TraceKind> = sys.trace().records().map(|r| r.kind).collect();
    assert_eq!(
        kinds,
        vec![TraceKind::Read, TraceKind::Read, TraceKind::Write]
    );
    let rendered = sys.trace().render();
    assert!(rendered.contains("READ"));
    assert!(rendered.contains("WRITE"));
    assert!(
        rendered.contains("CA,IM,BC"),
        "broadcast signals visible:\n{rendered}"
    );
    // The second read was served by cpu0's cache.
    let second = sys.trace().records().nth(1).unwrap();
    assert_eq!(second.source, futurebus::DataSource::Intervention(0));
    assert!(second.responses.di && second.responses.ch);
}

#[test]
fn trace_captures_bs_pushes() {
    let mut sys = SystemBuilder::new(LINE)
        .checking(true)
        .cache(moesi::protocols::by_name("illinois", 0).unwrap(), cfg())
        .cache(moesi::protocols::by_name("illinois", 1).unwrap(), cfg())
        .build();
    sys.enable_trace(64);
    sys.write(0, 0x100, &[1; 4]);
    sys.read(1, 0x100, 4); // aborts, pushes, retries
    let kinds: Vec<TraceKind> = sys.trace().records().map(|r| r.kind).collect();
    assert!(kinds.contains(&TraceKind::Push), "{kinds:?}");
    let read = sys
        .trace()
        .records()
        .filter(|r| r.kind == TraceKind::Read)
        .last()
        .unwrap();
    assert_eq!(read.aborts, 1, "the retried read records its abort");
}

#[test]
fn long_run_with_commands_interleaved_stays_consistent() {
    let mut sys = sys(4);
    let model = SharingModel {
        line_size: LINE as u64,
        ..SharingModel::default()
    };
    for round in 0..10 {
        let streams: Vec<Box<dyn RefStream + Send>> = (0..4)
            .map(|cpu| Box::new(DuboisBriggs::new(cpu, model, round)) as _)
            .collect();
        sys.run(&mut [streams], 50);
        sys.make_all_consistent();
        sys.verify().expect("consistent after sweep");
    }
}
