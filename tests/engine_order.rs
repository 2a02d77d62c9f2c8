//! The one run driver, seen from outside: the order in which `run` draws
//! accesses on trees and flat buses, the exact per-stream draw budget of a
//! timed run, and the write-payload rule that makes a run split
//! in two equal one run of the whole length, on trees and flat buses alike.

use std::sync::{Arc, Mutex};

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::moesi_preferred;
use mpsim::hierarchy::{TreeBuilder, TreeSpec};
use mpsim::{Access, RefStream, System, SystemBuilder};

const LINE: usize = 16;

fn cfg() -> CacheConfig {
    CacheConfig::new(256, LINE, 2, ReplacementKind::Lru)
}

fn leaf(cpus: usize) -> TreeSpec {
    (0..cpus).fold(TreeSpec::leaf(), |spec, _| {
        spec.cache(Box::new(moesi_preferred()), cfg())
    })
}

/// A ragged tree: the root holds an interior segment over leaves of 1 and 3
/// CPUs, and a leaf of 2 CPUs — leaves of uneven size at uneven depths.
fn ragged_tree() -> System {
    TreeBuilder::new(LINE)
        .checking(true)
        .child(TreeSpec::interior(vec![leaf(1), leaf(3)]))
        .child(leaf(2))
        .build()
}

const RAGGED_CPUS: [usize; 3] = [1, 3, 2];

/// A deterministic stream for global processor `id`: a walk over 8 shared
/// words, every third access a write. With a log, each draw records `id`.
struct Walk {
    id: usize,
    n: u64,
    log: Option<Arc<Mutex<Vec<usize>>>>,
}

impl RefStream for Walk {
    fn next_access(&mut self) -> Access {
        if let Some(log) = &self.log {
            log.lock().expect("log").push(self.id);
        }
        self.n += 1;
        let addr = 0x1000 + ((self.n * 5 + self.id as u64 * 3) % 8) * 4;
        if (self.n + self.id as u64).is_multiple_of(3) {
            Access::write(addr, 4)
        } else {
            Access::read(addr, 4)
        }
    }
}

/// One stream vec per leaf of the ragged tree, numbered leaf-major.
fn tree_streams(log: Option<&Arc<Mutex<Vec<usize>>>>) -> Vec<Vec<Box<dyn RefStream + Send>>> {
    let mut id = 0;
    RAGGED_CPUS
        .iter()
        .map(|&cpus| {
            (0..cpus)
                .map(|_| {
                    id += 1;
                    Box::new(Walk {
                        id: id - 1,
                        n: 0,
                        log: log.cloned(),
                    }) as Box<dyn RefStream + Send>
                })
                .collect()
        })
        .collect()
}

#[test]
fn tree_run_draws_leaf_major_cpu_minor_rounds() {
    let mut sys = ragged_tree();
    assert_eq!(sys.leaves(), RAGGED_CPUS.len());
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut streams = tree_streams(Some(&log));
    let steps = 5;
    sys.run(&mut streams, steps);

    let cpus: usize = RAGGED_CPUS.iter().sum();
    let round: Vec<usize> = (0..cpus).collect();
    let expected: Vec<usize> = (0..steps).flat_map(|_| round.iter().copied()).collect();
    assert_eq!(*log.lock().expect("log"), expected);
    sys.verify().expect("consistent");
}

/// Root memory over every word the walks touch, after a global sync.
fn tree_image(sys: &mut System) -> Vec<u8> {
    sys.make_all_consistent();
    sys.memory_peek(0x1000, 32)
}

#[test]
fn a_tree_run_split_in_two_equals_one_run() {
    let k = 7;
    let mut split = ragged_tree();
    let mut streams = tree_streams(None);
    split.run(&mut streams, k);
    split.run(&mut streams, k);

    let mut whole = ragged_tree();
    whole.run(&mut tree_streams(None), 2 * k);

    assert_eq!(split.verify(), whole.verify());
    assert_eq!(tree_image(&mut split), tree_image(&mut whole));
}

fn flat_system() -> System {
    (0..FLAT_CPUS)
        .fold(SystemBuilder::new(LINE).checking(true), |b, _| {
            b.cache(Box::new(moesi_preferred()), cfg())
        })
        .build()
}

const FLAT_CPUS: usize = 3;

fn flat_streams() -> Vec<Box<dyn RefStream + Send>> {
    logged_flat_streams(None)
}

/// One stream per CPU of the flat system; with a log, each draw records the
/// CPU's id.
fn logged_flat_streams(log: Option<&Arc<Mutex<Vec<usize>>>>) -> Vec<Box<dyn RefStream + Send>> {
    (0..FLAT_CPUS)
        .map(|id| {
            Box::new(Walk {
                id,
                n: 0,
                log: log.cloned(),
            }) as Box<dyn RefStream + Send>
        })
        .collect()
}

#[test]
fn flat_run_draws_cpu_after_cpu_rounds() {
    let mut sys = flat_system();
    let log = Arc::new(Mutex::new(Vec::new()));
    let streams = logged_flat_streams(Some(&log));
    let steps = 5;
    sys.run(&mut [streams], steps);

    let round: Vec<usize> = (0..FLAT_CPUS).collect();
    let expected: Vec<usize> = (0..steps).flat_map(|_| round.iter().copied()).collect();
    assert_eq!(*log.lock().expect("log"), expected);
    sys.verify().expect("consistent");
}

#[test]
fn flat_timed_run_draws_exactly_its_budget_from_every_stream() {
    let mut sys = flat_system();
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut streams = logged_flat_streams(Some(&log));
    let k = 40;
    let report = sys.run_timed(&mut streams, k, 3);

    assert_eq!(report.total_refs, k * FLAT_CPUS as u64);
    let log = log.lock().expect("log");
    for id in 0..FLAT_CPUS {
        let draws = log.iter().filter(|&&drawn| drawn == id).count();
        assert_eq!(draws as u64, k, "cpu {id} drew {draws} accesses, not {k}");
    }
    sys.verify().expect("consistent");
}

#[test]
fn a_flat_run_split_in_two_equals_one_run() {
    let k = 7;
    let mut split = flat_system();
    let mut streams = [flat_streams()];
    split.run(&mut streams, k);
    split.run(&mut streams, k);

    let mut whole = flat_system();
    whole.run(&mut [flat_streams()], 2 * k);

    assert_eq!(split.verify(), whole.verify());
    split.make_all_consistent();
    whole.make_all_consistent();
    assert_eq!(split.memory_peek(0x1000, 32), whole.memory_peek(0x1000, 32));
}
