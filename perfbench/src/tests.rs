//! The benchmark's own tests. Run them optimised:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use super::*;
use futurebus::TimingConfig;
use jobs::{run_once, workload, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};

const SEEDS: [u64; 2] = [DEFAULT_SEED, HELD_OUT_SEED];

#[test]
fn reference_digests_hold_at_both_recorded_seeds() {
    for w in WORKLOADS {
        let list = workload(w).unwrap();
        for seed in SEEDS {
            let reference = references(w, seed);
            assert_eq!(
                reference.len(),
                list.len(),
                "{w} seed {seed}: one digest per job"
            );
            for job in &list {
                let c = run_once(job, seed, false)
                    .unwrap_or_else(|e| panic!("{w} {} seed {seed}: {e}", job.name()));
                assert_eq!(
                    Some(&c.digest()),
                    reference.get(&job.name()),
                    "{w} {} seed {seed}: {c:?}",
                    job.name()
                );
            }
        }
    }
}

#[test]
fn the_seed_reaches_every_job() {
    for w in WORKLOADS {
        let a = references(w, DEFAULT_SEED);
        let b = references(w, HELD_OUT_SEED);
        assert!(!a.is_empty(), "{w}");
        for (job, digest) in &a {
            assert_ne!(
                Some(digest),
                b.get(job),
                "{w} {job}: same inputs at both seeds"
            );
        }
    }
}

#[test]
fn checked_jobs_check_and_leave_the_machine_unchanged() {
    let list = workload("checked").unwrap();
    let mut trees = 0;
    for job in &list {
        assert!(job.checking, "{}", job.name());
        // Without the oracle `verify()` returns Ok having checked nothing.
        if let Machine::Tree(t) = jobs::build(job, DEFAULT_SEED, false) {
            assert!(t.checker().is_some(), "{}", job.name());
            trees += 1;
        }
        for seed in SEEDS {
            let checked = run_once(job, seed, false).unwrap();
            assert_eq!(
                Ok(checked),
                run_once(&job.unchecked(), seed, false),
                "{}",
                job.name()
            );
        }
    }
    assert!(trees > 0 && trees < list.len(), "flat and tree halves");
}

#[test]
fn forwarding_wrappers_leave_every_job_unchanged() {
    for w in WORKLOADS {
        for job in workload(w).unwrap() {
            let plain = run_once(&job, DEFAULT_SEED, false);
            assert!(plain.is_ok(), "{w} {}: {plain:?}", job.name());
            assert_eq!(
                run_once(&job, DEFAULT_SEED, true),
                plain,
                "{w} {}",
                job.name()
            );
        }
    }
}

#[test]
fn flat_machines_are_the_sweep_harness_machines() {
    for job in workload("flat-write").unwrap() {
        let theirs = Machine::Flat(bench::homogeneous_system(
            job.protocol,
            4,
            4096,
            bench::LINE,
            TimingConfig::default(),
            false,
        ));
        let ours = jobs::build(&job, DEFAULT_SEED, false);
        let run = |mut m: Machine| {
            let mut s = jobs::streams(&job, DEFAULT_SEED, false);
            let t = jobs::run(&job, &mut m, &mut s);
            jobs::counters(&job, &m, t.as_ref())
        };
        assert_eq!(run(ours), run(theirs), "{}", job.name());
    }
}

#[test]
fn bus_load_separates_the_flat_workloads() {
    let load = |w: &str, seed: u64| {
        let (mut txns, mut refs) = (0, 0);
        for job in workload(w).unwrap() {
            let c = run_once(&job, seed, false).unwrap();
            txns += c.txns;
            refs += c.refs;
        }
        txns as f64 / refs as f64
    };
    for seed in SEEDS {
        let read = load("flat-read", seed);
        let write = load("flat-write", seed);
        assert!(read <= 0.05, "flat-read: {read} transactions per reference");
        assert!(
            write >= 0.4,
            "flat-write: {write} transactions per reference"
        );
    }
}

/// A workload's jobs at a tenth of their length, for the tracing tests.
fn short(w: &str) -> Vec<Job> {
    let mut list = workload(w).unwrap();
    for job in &mut list {
        job.steps = job.steps.div_ceil(10);
    }
    list
}

#[test]
fn traced_counts_repeat_between_rounds() {
    for w in WORKLOADS {
        let list = short(w);
        let twins: Vec<Job> = list
            .iter()
            .filter(|j| j.checking)
            .map(Job::unchecked)
            .collect();
        // One untraced pass first, so one-time lazy initialisation is not
        // charged to the first traced round.
        run_pass(&list, DEFAULT_SEED, false, 0);
        trace::set_enabled(true);
        let a = traced_round(&list, &twins, DEFAULT_SEED, 1);
        let b = traced_round(&list, &twins, DEFAULT_SEED, 2);
        trace::set_enabled(false);
        let records = trace::take_records();
        assert_eq!(a.pass.total(), b.pass.total(), "{w}");
        let trees = list
            .iter()
            .any(|j| matches!(j.shape, jobs::Shape::Tree { .. }));
        if trees {
            // Allocations inside `mpsim::hierarchy` follow std's randomly
            // seeded HashMaps (bridge directories, the tree oracle's line
            // set), so there only the calls must repeat exactly and the
            // allocation counts to within 1%.
            for l in Layer::ALL.into_iter().skip(1) {
                let (x, y) = (a.tally[l as usize], b.tally[l as usize]);
                assert_eq!(x.calls, y.calls, "{w} {}", l.name());
                let close = |p: u64, q: u64| p.abs_diff(q) * 100 <= p.max(q);
                assert!(close(x.allocs, y.allocs), "{w} {}: {x:?} {y:?}", l.name());
                assert!(close(x.bytes, y.bytes), "{w} {}: {x:?} {y:?}", l.name());
            }
        } else {
            assert!(a.unrepeated(&b).is_empty(), "{w}: {:?}", a.unrepeated(&b));
        }
        let t = |l: Layer| a.tally[l as usize];
        assert_eq!(
            t(Layer::Next).calls,
            a.pass.ops,
            "{w}: one next_access per reference"
        );
        assert!(
            t(Layer::Local).calls > 0 && t(Layer::Snoop).calls > 0,
            "{w}"
        );
        assert_eq!(t(Layer::Run).calls, list.len() as u64, "{w}");
        assert!(
            t(Layer::Build).allocs > 0,
            "{w}: building machines allocates"
        );
        // Spans of one job share its id: build, streams, run, three folded
        // per-call spans and verify.
        let job0: Vec<_> = records.iter().filter(|r| r.job == 2000).collect();
        assert_eq!(job0.len(), 7, "{w}");
    }
}

#[test]
fn allocations_are_charged_to_the_innermost_span() {
    trace::set_enabled(true);
    let before = trace::snapshot();
    let v = trace::span(0, Layer::Build, || {
        let outer = vec![1u8; 100];
        let inner = trace::span(0, Layer::Verify, || vec![2u8; 1000]);
        (outer, inner)
    });
    let d = trace::delta(&trace::snapshot(), &before);
    trace::set_enabled(false);
    trace::take_records();
    assert_eq!((v.0.len(), v.1.len()), (100, 1000));
    assert_eq!(
        (
            d[Layer::Build as usize].allocs,
            d[Layer::Build as usize].bytes
        ),
        (1, 100)
    );
    assert_eq!(
        (
            d[Layer::Verify as usize].allocs,
            d[Layer::Verify as usize].bytes
        ),
        (1, 1000)
    );
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let a = parse("--workload tree --seed 3 --seconds 2.5 --trace 1").unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("tree", 3, 2.5, true)
    );
    for bad in [
        "--workload nope",
        "--workload tree --trace 2",
        "--workload tree --seconds 0",
        "--workload tree --seed -1",
        "--workload tree --seed",
        "--workload tree --bogus 1",
        "",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} accepted");
    }
}
