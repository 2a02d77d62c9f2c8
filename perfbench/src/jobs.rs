//! The workloads: each is a fixed list of jobs, and a job is one machine,
//! built through the public library API with empty caches, run once over
//! seeded Dubois-Briggs reference streams.
//!
//! The workloads vary bus load on purpose (the shared bus is the resource
//! whose load sets a snooping machine's throughput):
//!
//! - `flat-read`: read-heavy, so the controller hit path and the cache array
//!   do nearly all the work and the bus barely runs;
//! - `flat-write`: a small hot shared pool written half the time, so the
//!   Futurebus pipeline, snoop decisions and BS abort-push dominate;
//! - `tree`: the only workload through `mpsim::hierarchy` (bridges, snoop
//!   filters), on 64 caches three bus levels deep;
//! - `checked`: the only workload with the consistency oracle on.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bench::sweep::CPU_WORK_NS;
use bench::{COMPARED_PROTOCOLS, LINE};
use cache_array::{CacheConfig, ReplacementKind};
use futurebus::{BusStats, Discipline, TimingConfig};
use moesi::protocols::by_name;
use moesi::Protocol;
use mpsim::hierarchy::{HierarchicalSystem, TreeBuilder};
use mpsim::{DuboisBriggs, RefStream, SharingModel, System, SystemBuilder, TimedReport};

use crate::trace::{TracedPolicy, TracedStream};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["flat-read", "flat-write", "tree", "checked"];

/// The seed the committed reference digests were recorded at.
pub const DEFAULT_SEED: u64 = 7;
/// A second recorded seed, never used while sizing the workloads.
pub const HELD_OUT_SEED: u64 = 4242;

/// The protocols of the tree and checked workloads: the saturation study's
/// set (`BENCH_hierarchy.json`), one of each family.
const TREE_PROTOCOLS: [&str; 4] = ["moesi", "dragon", "berkeley", "write-through"];

/// Read-heavy sharing: 2% writes over a working set that fits the 4 KiB
/// caches, so after the fill nearly every reference hits.
const READ_HEAVY: SharingModel = SharingModel {
    shared_lines: 16,
    private_lines: 64,
    p_shared: 0.2,
    p_write: 0.02,
    p_rereference: 0.5,
    line_size: LINE as u64,
};

/// Write sharing: a hot pool of 8 shared lines takes 60% of references and
/// half of all references are writes, so most writes hit a line another
/// cache holds.
const WRITE_SHARING: SharingModel = SharingModel {
    shared_lines: 8,
    private_lines: 64,
    p_shared: 0.6,
    p_write: 0.5,
    p_rereference: 0.2,
    line_size: LINE as u64,
};

/// The saturation study's model (`SharingModel::default()` at 32 B lines).
const DEFAULT_SHARING: SharingModel = SharingModel {
    shared_lines: 16,
    private_lines: 64,
    p_shared: 0.2,
    p_write: 0.3,
    p_rereference: 0.5,
    line_size: LINE as u64,
};

/// A machine's geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One Futurebus with `cpus` caches (`bench::homogeneous_system`).
    Flat { cpus: usize, cache_bytes: usize },
    /// `TreeBuilder::uniform(LINE, clusters, depth, fanout, cpus, ..)`.
    Tree {
        clusters: usize,
        depth: usize,
        fanout: usize,
        cpus: usize,
        cache_bytes: usize,
        discipline: Discipline,
    },
}

impl Shape {
    /// Caches in the machine.
    pub fn caches(&self) -> usize {
        match *self {
            Shape::Flat { cpus, .. } => cpus,
            Shape::Tree {
                clusters,
                depth,
                fanout,
                cpus,
                ..
            } => clusters * fanout.pow(depth as u32 - 2) * cpus,
        }
    }
}

/// One machine run.
#[derive(Clone, Debug)]
pub struct Job {
    /// Protocol on every cache.
    pub protocol: &'static str,
    /// Geometry.
    pub shape: Shape,
    /// The reference model every cache's stream draws from.
    pub model: SharingModel,
    /// References per cache.
    pub steps: u64,
    /// Whether the consistency oracle is on.
    pub checking: bool,
}

impl Job {
    /// A stable name, used as the key of the reference digests.
    pub fn name(&self) -> String {
        let shape = match self.shape {
            Shape::Flat { cpus, .. } => format!("flat{cpus}"),
            Shape::Tree {
                clusters,
                depth,
                fanout,
                cpus,
                discipline,
                ..
            } => format!("tree{clusters}x{fanout}x{cpus}d{depth}-{discipline}"),
        };
        let checked = if self.checking { "+checked" } else { "" };
        format!("{}/{shape}{checked}", self.protocol)
    }

    /// References the job issues.
    pub fn refs(&self) -> u64 {
        self.steps * self.shape.caches() as u64
    }

    /// The same job with the oracle off.
    pub fn unchecked(&self) -> Job {
        Job {
            checking: false,
            ..self.clone()
        }
    }
}

/// The job list of a workload, or `None` for an unknown name.
pub fn workload(name: &str) -> Option<Vec<Job>> {
    let flat = Shape::Flat {
        cpus: 4,
        cache_bytes: 4096,
    };
    let flat_jobs = |model: SharingModel, steps: u64| -> Vec<Job> {
        COMPARED_PROTOCOLS
            .iter()
            .map(|&protocol| Job {
                protocol,
                shape: flat,
                model,
                steps,
                checking: false,
            })
            .collect()
    };
    Some(match name {
        "flat-read" => flat_jobs(READ_HEAVY, 40_000),
        "flat-write" => flat_jobs(WRITE_SHARING, 6_000),
        "tree" => TREE_PROTOCOLS
            .iter()
            .flat_map(|&protocol| {
                Discipline::ALL.into_iter().map(move |discipline| Job {
                    protocol,
                    shape: Shape::Tree {
                        clusters: 4,
                        depth: 3,
                        fanout: 4,
                        cpus: 4,
                        cache_bytes: 2048,
                        discipline,
                    },
                    model: DEFAULT_SHARING,
                    steps: 400,
                    checking: false,
                })
            })
            .collect(),
        "checked" => TREE_PROTOCOLS
            .iter()
            .flat_map(|&protocol| {
                [
                    Job {
                        protocol,
                        shape: flat,
                        model: DEFAULT_SHARING,
                        steps: 200,
                        checking: true,
                    },
                    Job {
                        protocol,
                        shape: Shape::Tree {
                            clusters: 2,
                            depth: 2,
                            fanout: 1,
                            cpus: 2,
                            cache_bytes: 4096,
                            discipline: Discipline::Priority,
                        },
                        model: DEFAULT_SHARING,
                        steps: 100,
                        checking: true,
                    },
                ]
            })
            .collect(),
        _ => return None,
    })
}

/// A built machine, caches empty.
pub enum Machine {
    /// A flat bus.
    Flat(System),
    /// A fabric tree.
    Tree(HierarchicalSystem),
}

/// The machine's reference streams, one per cache.
pub enum Streams {
    /// `streams[cpu]`.
    Flat(Vec<Box<dyn RefStream + Send>>),
    /// `streams[leaf][cpu]`.
    Tree(Vec<Vec<Box<dyn RefStream + Send>>>),
}

fn policy(job: &Job, id: usize, traced: bool) -> Box<dyn Protocol + Send> {
    // The same per-cache policy seeds as `bench::homogeneous_system` and the
    // saturation study.
    let p = by_name(job.protocol, 1000 + id as u64).expect("workload protocols are shipped");
    if traced {
        Box::new(TracedPolicy(p))
    } else {
        p
    }
}

/// Builds the job's machine; `traced` wraps every policy in
/// [`TracedPolicy`].
pub fn build(job: &Job, seed: u64, traced: bool) -> Machine {
    match job.shape {
        Shape::Flat { cpus, cache_bytes } => {
            let cfg = CacheConfig::new(cache_bytes, LINE, 2, ReplacementKind::Lru);
            let mut b = SystemBuilder::new(LINE)
                .timing(TimingConfig::default())
                .checking(job.checking);
            for i in 0..cpus {
                b = b.cache(policy(job, i, traced), cfg);
            }
            Machine::Flat(b.build())
        }
        Shape::Tree {
            clusters,
            depth,
            fanout,
            cpus,
            cache_bytes,
            discipline,
        } => {
            let cfg = CacheConfig::new(cache_bytes, LINE, 2, ReplacementKind::Lru);
            let tree = TreeBuilder::uniform(LINE, clusters, depth, fanout, cpus, |leaf, cpu| {
                (policy(job, leaf * cpus + cpu, traced), Some(cfg))
            })
            .seed(seed)
            .discipline(discipline)
            .checking(job.checking)
            .build();
            Machine::Tree(tree)
        }
    }
}

/// Builds the job's seeded streams: cache `i` (global index) draws from
/// `DuboisBriggs::new(i, model, seed)`. `traced` wraps each in
/// [`TracedStream`].
pub fn streams(job: &Job, seed: u64, traced: bool) -> Streams {
    let stream = |i: usize| -> Box<dyn RefStream + Send> {
        let s = Box::new(DuboisBriggs::new(i, job.model, seed));
        if traced {
            Box::new(TracedStream(s))
        } else {
            s
        }
    };
    match job.shape {
        Shape::Flat { cpus, .. } => Streams::Flat((0..cpus).map(stream).collect()),
        Shape::Tree { cpus, .. } => {
            let leaves = job.shape.caches() / cpus;
            Streams::Tree(
                (0..leaves)
                    .map(|leaf| (0..cpus).map(|cpu| stream(leaf * cpus + cpu)).collect())
                    .collect(),
            )
        }
    }
}

/// The timed call: `System::run_timed` or `HierarchicalSystem::run`.
///
/// # Panics
///
/// Panics when the streams do not match the machine, or — with the oracle
/// on — on a consistency violation (the library's own contract).
pub fn run(job: &Job, machine: &mut Machine, streams: &mut Streams) -> Option<TimedReport> {
    match (machine, streams) {
        (Machine::Flat(sys), Streams::Flat(s)) => Some(sys.run_timed(s, job.steps, CPU_WORK_NS)),
        (Machine::Tree(sys), Streams::Tree(s)) => {
            sys.run(s, job.steps);
            None
        }
        _ => panic!("streams do not match the machine"),
    }
}

/// A job's simulated counters: the correctness check. Host time never
/// enters, and neither do the phase percentiles (a truthful phase breakdown
/// may move them without changing the machine's behaviour).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Processor references issued.
    pub refs: u64,
    /// Simulated wall time (flat timed runs; 0 for trees).
    pub wall_ns: u64,
    /// Simulated bus-busy time, summed over every bus.
    pub busy_ns: u64,
    /// Simulated arbitration wait (flat timed runs; 0 for trees).
    pub wait_ns: u64,
    /// Transactions, summed over every bus.
    pub txns: u64,
    /// BS aborts, summed over every bus.
    pub aborts: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Invalidations received by caches.
    pub invalidations: u64,
    /// Root-bus transactions (trees).
    pub root_txns: u64,
    /// Transactions summed over the leaf-cluster buses (trees).
    pub leaf_txns: u64,
    /// Bridge ledger, summed over every bridge: parent-side transactions.
    pub bridge_txns: u64,
    /// Bridge ledger: snoops seen.
    pub snooped: u64,
    /// Bridge ledger: snoops whose tag hit.
    pub filter_hits: u64,
    /// Bridge ledger: snoops forwarded into subtrees.
    pub forwarded: u64,
    /// Bridge ledger: snoops the inclusion filters suppressed.
    pub suppressed: u64,
}

impl Counters {
    fn fields(&self) -> [u64; 16] {
        [
            self.refs,
            self.wall_ns,
            self.busy_ns,
            self.wait_ns,
            self.txns,
            self.aborts,
            self.hits,
            self.misses,
            self.invalidations,
            self.root_txns,
            self.leaf_txns,
            self.bridge_txns,
            self.snooped,
            self.filter_hits,
            self.forwarded,
            self.suppressed,
        ]
    }

    /// FNV-1a over every field: the digest kept in `reference/digests.txt`.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in self.fields() {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        let (a, b) = (self.fields(), other.fields());
        let s: [u64; 16] = std::array::from_fn(|i| a[i] + b[i]);
        *self = Counters {
            refs: s[0],
            wall_ns: s[1],
            busy_ns: s[2],
            wait_ns: s[3],
            txns: s[4],
            aborts: s[5],
            hits: s[6],
            misses: s[7],
            invalidations: s[8],
            root_txns: s[9],
            leaf_txns: s[10],
            bridge_txns: s[11],
            snooped: s[12],
            filter_hits: s[13],
            forwarded: s[14],
            suppressed: s[15],
        };
    }
}

fn add_bus(c: &mut Counters, s: &BusStats) {
    c.txns += s.transactions;
    c.busy_ns += s.busy_ns;
    c.aborts += s.aborts;
}

fn add_cpus<'a>(c: &mut Counters, stats: impl Iterator<Item = &'a mpsim::CpuStats>) {
    for s in stats {
        c.hits += s.hits();
        c.misses += s.references() - s.hits();
        c.invalidations += s.invalidations_received;
    }
}

/// Verifies the machine, then reads its counters.
///
/// # Errors
///
/// A consistency `Violation`, a survived fabric error, or counters that
/// break the machine's own conservation laws.
pub fn counters(
    job: &Job,
    machine: &Machine,
    timed: Option<&TimedReport>,
) -> Result<Counters, String> {
    let mut c = Counters::default();
    match machine {
        Machine::Flat(sys) => {
            sys.verify().map_err(|v| format!("violation: {v}"))?;
            let t = timed.ok_or("a flat job returns a timed report")?;
            c.refs = t.total_refs;
            c.wall_ns = t.wall_ns;
            c.wait_ns = t.bus_wait_ns;
            add_bus(&mut c, sys.bus_stats());
            add_cpus(&mut c, sys.fabric().controllers().iter().map(|x| x.stats()));
        }
        Machine::Tree(sys) => {
            sys.verify().map_err(|v| format!("violation: {v}"))?;
            if let Some(e) = sys.parent_errors().first() {
                return Err(format!("fabric error: {e:?}"));
            }
            c.refs = job.refs();
            add_bus(&mut c, sys.parent_stats());
            c.root_txns = sys.parent_stats().transactions;
            for bridge in sys.bridges_preorder() {
                let s = bridge.stats();
                c.bridge_txns += s.parent_transactions;
                c.snooped += s.snooped;
                c.filter_hits += s.filter_hits;
                c.forwarded += s.forwarded;
                c.suppressed += s.suppressed;
                match bridge.segment() {
                    Some(seg) => add_bus(&mut c, seg.bus().stats()),
                    None => {
                        let f = bridge.fabric();
                        c.leaf_txns += f.bus().stats().transactions;
                        add_bus(&mut c, f.bus().stats());
                        add_cpus(&mut c, f.controllers().iter().map(|x| x.stats()));
                    }
                }
            }
            if c.forwarded + c.suppressed != c.snooped {
                return Err("bridge ledger does not conserve snoops".into());
            }
        }
    }
    if c.hits + c.misses != c.refs || c.refs != job.refs() {
        return Err(format!(
            "{} references issued, {} counted by the caches, {} expected",
            c.refs,
            c.hits + c.misses,
            job.refs()
        ));
    }
    Ok(c)
}

/// Runs a job start to finish outside any measurement — for the reference
/// digests and the tests. A panic counts as a failure.
///
/// # Errors
///
/// As [`counters`], plus a panic's message.
pub fn run_once(job: &Job, seed: u64, traced: bool) -> Result<Counters, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut m = build(job, seed, traced);
        let mut s = streams(job, seed, traced);
        let t = run(job, &mut m, &mut s);
        counters(job, &m, t.as_ref())
    }))
    .unwrap_or_else(|p| Err(panic_message(&*p)))
}

/// The message of a caught panic.
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into());
    format!("panic: {msg}")
}
