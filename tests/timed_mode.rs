//! The contention-aware timed mode (`System::run_timed`) must obey basic
//! queueing identities: single-CPU wall time decomposes exactly, utilisation
//! is bounded, and adding processors never reduces aggregate throughput of a
//! bus-free workload.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::{moesi_preferred, non_caching};
use mpsim::workload::{Access, Sequential, TraceReplay};
use mpsim::{RefStream, System, SystemBuilder};

const LINE: usize = 32;

fn cfg() -> CacheConfig {
    CacheConfig::new(4096, LINE, 2, ReplacementKind::Lru)
}

fn moesi_system(n: usize) -> System {
    let mut b = SystemBuilder::new(LINE).checking(true);
    for _ in 0..n {
        b = b.cache(Box::new(moesi_preferred()), cfg());
    }
    b.build()
}

#[test]
fn single_cpu_wall_time_decomposes_exactly() {
    let mut sys = moesi_system(1);
    // One line, repeatedly read: 1 miss then all hits.
    let trace = TraceReplay::new(vec![Access::read(0x1000, 4)]);
    let mut streams: Vec<Box<dyn RefStream + Send>> = vec![Box::new(trace)];
    let refs = 50;
    let work = 100;
    let report = sys.run_timed(&mut streams, refs, work);
    assert_eq!(report.total_refs, refs);
    // wall = refs * work + the single miss's bus time.
    assert_eq!(report.wall_ns, refs * work + report.bus_busy_ns);
    assert_eq!(report.bus_wait_ns, 0, "nobody to contend with");
    assert!(
        report.bus_utilization() <= 0.25,
        "one cold miss only: {report}"
    );
}

#[test]
fn utilization_is_bounded_and_waiting_appears_under_contention() {
    // Four uncached processors: every access needs the bus.
    let mut b = SystemBuilder::new(LINE).checking(true);
    for _ in 0..4 {
        b = b.uncached(Box::new(non_caching()));
    }
    let mut sys = b.build();
    let trace = TraceReplay::new(vec![Access::read(0x1000, 4), Access::write(0x1000, 4)]);
    let mut streams: Vec<Box<dyn RefStream + Send>> =
        (0..4).map(|_| Box::new(trace.clone()) as _).collect();
    let report = sys.run_timed(&mut streams, 40, 10);
    assert!(report.bus_utilization() > 0.95, "{report}");
    assert!(report.bus_utilization() <= 1.0 + f64::EPSILON);
    assert!(report.bus_wait_ns > 0, "queueing must show up: {report}");
    assert_eq!(report.total_refs, 160);
}

#[test]
fn private_workloads_scale_nearly_linearly() {
    // Disjoint private working sets: after warm-up, no bus traffic at all.
    let run = |n: usize| {
        let mut sys = moesi_system(n);
        let mut streams: Vec<Box<dyn RefStream + Send>> = (0..n)
            .map(|cpu| Box::new(Sequential::new(cpu, 4, 256, 0.3, 3)) as _)
            .collect();
        sys.run_timed(&mut streams, 2_000, 50)
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four.refs_per_us() > 3.0 * one.refs_per_us(),
        "private work must scale: {} vs {}",
        four.refs_per_us(),
        one.refs_per_us()
    );
}

#[test]
fn timed_and_untimed_runs_agree_on_coherence_outcomes() {
    // The timed mode changes scheduling, not semantics: final bus statistics
    // categories stay sane and the oracle holds throughout.
    let mut sys = moesi_system(3);
    let trace = TraceReplay::new(vec![
        Access::read(0x1000, 4),
        Access::write(0x1000, 4),
        Access::read(0x1020, 4),
    ]);
    let mut streams: Vec<Box<dyn RefStream + Send>> =
        (0..3).map(|_| Box::new(trace.clone()) as _).collect();
    let report = sys.run_timed(&mut streams, 60, 25);
    assert_eq!(report.total_refs, 180);
    sys.verify().expect("oracle holds in timed mode");
    let t = sys.total_stats();
    assert_eq!(t.references(), 180);
    assert!(t.hits() > 0);
}
