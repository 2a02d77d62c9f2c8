//! Golden-trace differential tests pinning the bus engine's behaviour.
//!
//! Each scenario runs a fixed-seed workload on a fixed machine with tracing
//! enabled and compares the *byte-exact* rendered `BusTrace`, the final
//! `BusStats`, and every node's `CpuStats` against a fixture recorded under
//! `tests/fixtures/golden/`. The fixtures were captured from the pre-phase
//! monolithic engine, so any refactor of the transaction pipeline (the
//! `Arbitrate → AddressBroadcast → SnoopResolve → Abort/Backoff →
//! DataTransfer → Commit` split) must reproduce the old engine's output to
//! the byte — ordering of trace records, nanosecond accounting, abort counts
//! and fault bookkeeping included.
//!
//! To re-record after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_trace
//! ```

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::fault::{FaultConfig, FaultPlan};
use moesi::protocols::by_name;
use mpsim::workload::{DuboisBriggs, SharingModel};
use mpsim::{RefStream, System, SystemBuilder};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 7;
const CPUS: usize = 3;
const STEPS: u64 = 250;
const LINE: usize = 16;
const CACHE_BYTES: usize = 512;

/// The protocols whose engine interaction the fixtures pin: the four
/// campaign protocols plus two BS-using adapted ones (abort-push paths).
const PINNED_PROTOCOLS: &[&str] = &[
    "moesi",
    "dragon",
    "write-through",
    "berkeley",
    "illinois",
    "write-once",
];

fn build(protocol: &str) -> System {
    let cfg = CacheConfig::new(CACHE_BYTES, LINE, 2, ReplacementKind::Lru);
    let mut b = SystemBuilder::new(LINE).seed(SEED);
    for i in 0..CPUS {
        b = b.cache(
            by_name(protocol, SEED.wrapping_add(i as u64)).expect("known protocol"),
            cfg,
        );
    }
    b.build()
}

fn streams() -> Vec<Box<dyn RefStream + Send>> {
    (0..CPUS)
        .map(|cpu| -> Box<dyn RefStream + Send> {
            Box::new(DuboisBriggs::new(
                cpu,
                SharingModel {
                    line_size: LINE as u64,
                    ..SharingModel::default()
                },
                SEED,
            ))
        })
        .collect()
}

/// Renders everything the fixture pins: the full trace, the bus counters and
/// the per-node counters.
fn snapshot(sys: &System) -> String {
    let mut out = String::new();
    out.push_str(&sys.trace().render());
    let _ = writeln!(out, "bus_stats: {:?}", sys.bus_stats());
    for cpu in 0..sys.nodes() {
        let _ = writeln!(out, "cpu{cpu}: {:?}", sys.stats(cpu));
    }
    out
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(format!("{name}.txt"))
}

fn assert_matches_fixture(name: &str, got: &str) {
    let path = fixture_path(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
        std::fs::write(&path, got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run GOLDEN_BLESS=1",
            path.display()
        )
    });
    if want != got {
        let first_diff = want
            .lines()
            .zip(got.lines())
            .position(|(w, g)| w != g)
            .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
        panic!(
            "golden trace `{name}` diverged from {} at line {} —\n  fixture: {:?}\n  engine:  {:?}\n\
             (re-record with GOLDEN_BLESS=1 only for an intentional behaviour change)",
            path.display(),
            first_diff + 1,
            want.lines().nth(first_diff).unwrap_or("<eof>"),
            got.lines().nth(first_diff).unwrap_or("<eof>"),
        );
    }
}

fn run_clean(protocol: &str) -> String {
    let mut sys = build(protocol);
    sys.enable_trace(1 << 16);
    sys.run(&mut [streams()], STEPS);
    snapshot(&sys)
}

#[test]
fn golden_traces_per_protocol_are_stable() {
    for protocol in PINNED_PROTOCOLS {
        let got = run_clean(protocol);
        assert!(
            got.contains("READ") || got.contains("WRITE"),
            "{protocol}: scenario produced no bus traffic"
        );
        assert_matches_fixture(&format!("clean_{protocol}"), &got);
    }
}

/// The faulty scenario pins the recovery paths too: glitch filtering, abort
/// storms under backoff, watchdog retirements (with their salvage pushes and
/// recovery invalidates) and soft-error corruption records.
#[test]
fn golden_trace_under_faults_is_stable() {
    let mut sys = build("moesi");
    sys.enable_trace(1 << 16);
    sys.fabric_mut()
        .bus_mut()
        .inject_faults(FaultPlan::new(FaultConfig {
            seed: 0xFA_017,
            glitch_rate: 0.25,
            stall_rate: 0.002,
            kill_rate: 0.002,
            storm_rate: 0.08,
            corrupt_rate: 0.10,
            max_storm_rounds: 3,
            ..FaultConfig::default()
        }));
    sys.run(&mut [streams()], STEPS);
    let got = snapshot(&sys);
    for marker in ["GLTCH", "CORPT"] {
        assert!(got.contains(marker), "faulty scenario never hit {marker}");
    }
    assert_matches_fixture("faulty_moesi", &got);
}
