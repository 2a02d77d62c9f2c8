//! The per-access audit re-checks only the lines an access could have
//! changed, and falls back to a full audit after wholesale changes. In a
//! debug build every audit also asserts that its verdict equals the full
//! `verify()`, so these scenarios double as differential tests: each drives
//! one logging point or full-audit trigger with the oracle on and fault
//! tolerance off, then keeps running so the next audits see the aftermath.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::fault::{FaultConfig, FaultPlan};
use futurebus::{BusModule, TransactionRequest};
use moesi::protocols::{by_name, non_caching};
use moesi::{
    BusEvent, BusReaction, CacheKind, LineState, LocalAction, LocalEvent, MasterSignals,
    PolicyTable, TablePolicy,
};
use mpsim::hierarchy::{TreeBuilder, TreeSpec};
use mpsim::{
    Access, Checker, DuboisBriggs, OracleWork, RefStream, SharingModel, System, SystemBuilder,
    TraceReplay, Violation,
};

const LINE: usize = 32;

fn cfg() -> CacheConfig {
    // Small and 2-way, so fills evict and victims are written back.
    CacheConfig::new(256, LINE, 2, ReplacementKind::Lru)
}

fn flat(protocols: &[&str]) -> System {
    let mut b = SystemBuilder::new(LINE).checking(true);
    for (i, p) in protocols.iter().enumerate() {
        b = b.cache(by_name(p, i as u64).expect("known protocol"), cfg());
    }
    b.build()
}

fn two_by_two() -> System {
    TreeBuilder::new(LINE)
        .checking(true)
        .child(
            TreeSpec::leaf()
                .cache(by_name("moesi", 0).unwrap(), cfg())
                .cache(by_name("moesi", 1).unwrap(), cfg()),
        )
        .child(
            TreeSpec::leaf()
                .cache(by_name("dragon", 2).unwrap(), cfg())
                .cache(by_name("berkeley", 3).unwrap(), cfg()),
        )
        .build()
}

fn panics<F: FnOnce()>(f: F) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the audit must fire");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn pass_flush_and_atomics_stay_consistent() {
    let mut sys = flat(&["moesi", "dragon", "illinois", "berkeley"]);
    for round in 0..40u64 {
        let addr = 0x1000 + (round % 12) * LINE as u64;
        let cpu = (round % 4) as usize;
        sys.write(cpu, addr + 4, &[round as u8; 4]);
        let _ = sys.fetch_add_u32((cpu + 1) % 4, addr, 1);
        if round % 3 == 0 {
            sys.pass(cpu, addr);
        }
        if round % 5 == 0 {
            sys.flush((cpu + 2) % 4, addr);
        }
        assert_eq!(sys.test_and_set(cpu, addr + 16), 0);
        sys.clear_lock(cpu, addr + 16);
    }
    assert!(sys.make_all_consistent() > 0);
    sys.verify().expect("consistent");
    assert_eq!(sys.memory_peek(0x1000, 4), sys.read(0, 0x1000, 4));
}

#[test]
fn non_caching_and_write_through_nodes_log_aligned_lines() {
    // A cacheless node changes no line of its own; unaligned and
    // line-crossing accesses must still be audited line by line.
    let mut sys = SystemBuilder::new(LINE)
        .checking(true)
        .cache(by_name("moesi", 0).unwrap(), cfg())
        .cache(by_name("write-through", 1).unwrap(), cfg())
        .uncached(Box::new(non_caching()))
        .build();
    for i in 0..60u64 {
        let addr = 0x2000 + i * 7; // every alignment, some crossing lines
        sys.write((i % 3) as usize, addr, &[i as u8, 1, 2, 3, 4, 5]);
        let _ = sys.read(((i + 1) % 3) as usize, addr + 3, 9);
    }
    let script = |cpu: u64| -> Box<dyn RefStream + Send> {
        Box::new(TraceReplay::new(
            (0..50u64)
                .map(|i| Access {
                    addr: 0x2000 + (i * 13 + cpu * 5) % 300,
                    size: 1 + (i % 8) as usize,
                    is_write: (i + cpu).is_multiple_of(3),
                })
                .collect(),
        ))
    };
    sys.run(&mut [(0..3).map(script).collect()], 50);
    sys.verify().expect("consistent");
}

#[test]
fn a_retired_controller_forces_a_full_audit() {
    let mut sys = flat(&["moesi", "moesi", "dragon"]);
    sys.write(0, 0x100, &[5; 4]);
    sys.write(0, 0x200, &[6; 4]);
    // Cpu 0 hangs during the next transaction it snoops; the watchdog
    // retires it and salvages its dirty lines to memory.
    sys.fabric_mut().bus_mut().stall_module(0, true);
    assert_eq!(sys.read(1, 0x100, 4), vec![5; 4]);
    assert!(sys.stats(0).retired);
    assert_eq!(sys.read(2, 0x200, 4), vec![6; 4]);
    sys.write(0, 0x300, &[7; 4]); // now a non-caching client
    assert_eq!(sys.read(1, 0x300, 4), vec![7; 4]);
    sys.verify().expect("salvage preserves the image");
}

#[test]
fn a_change_behind_the_oracle_fails_the_next_access() {
    let mut sys = flat(&["moesi", "moesi"]);
    sys.write(0, 0x100, &[1; 4]);
    sys.flush(0, 0x100); // memory is now the owner of the golden data
    sys.fabric_mut()
        .bus_mut()
        .memory_mut()
        .write_bytes(0x100, 0, &[9]);
    // The memory write was logged, so an access to another line still
    // re-checks 0x100.
    let msg = panics(|| {
        let _ = sys.read(1, 0x400, 4);
    });
    assert!(
        msg.contains("0x100") && msg.contains("memory is stale"),
        "{msg}"
    );
}

#[test]
fn each_flat_logging_point_reaches_the_next_audit() {
    // Each change goes behind the oracle's back through one logging point
    // only. The audit of the next access, to another line, must report it;
    // had the point not logged, a debug build's differential check would
    // fire instead, and a release build would not fail at all.
    type Step = fn(&mut System);
    let owned: Step = |sys| sys.write(0, 0x100, &[5; 4]); // cpu0 M, memory stale
    let flushed: Step = |sys| {
        sys.write(0, 0x100, &[5; 4]);
        sys.flush(0, 0x100);
    };
    let cases: [(&str, Step, Step, &str); 4] = [
        (
            "write_cached",
            owned,
            |sys| assert!(sys.fabric_mut().controller_mut(0).write_cached(0x100, &[9])),
            "cpu0:MOESI holds a stale M copy",
        ),
        (
            "fill",
            owned,
            |sys| {
                let cpu1 = sys.fabric_mut().controller_mut(1);
                cpu1.fill(0x100, LineState::Shareable, &[0; LINE], &mut Vec::new());
            },
            "cpu0:MOESI claims exclusivity but cpu1:MOESI holds a copy",
        ),
        (
            "write_line",
            flushed,
            |sys| {
                let memory = sys.fabric_mut().bus_mut().memory_mut();
                memory.write_line(0x100, &[0; LINE]);
            },
            "unowned but memory is stale",
        ),
        (
            "retire",
            owned,
            |sys| {
                let report = sys.fabric_mut().controller_mut(0).retire(false);
                assert_eq!(report.lost, [0x100]);
            },
            "unowned but memory is stale",
        ),
    ];
    for (point, setup, change, expected) in cases {
        let mut sys = flat(&["moesi", "moesi"]);
        setup(&mut sys);
        change(&mut sys);
        let msg = panics(|| {
            let _ = sys.read(1, 0x400, 4);
        });
        assert!(
            msg.contains("line 0x100") && msg.contains(expected),
            "{point}: {msg}"
        );
    }

    // An abort-push takes cpu0's copy out of M; the bus, not the pusher,
    // would write memory.
    let mut sys = flat(&["illinois", "illinois"]);
    sys.write(0, 0x100, &[5; 4]);
    let cpu0 = sys.fabric_mut().controller_mut(0);
    assert!(
        cpu0.snoop(&TransactionRequest::read(1, 0x100, MasterSignals::CA))
            .bs
    );
    assert!(cpu0.prepare_push(0x100).is_some());
    let msg = panics(|| {
        let _ = sys.read(1, 0x400, 4);
    });
    assert!(
        msg.contains("line 0x100: unowned but memory is stale"),
        "prepare_push: {msg}"
    );
}

#[test]
fn a_dropped_directory_reaches_the_next_audit() {
    // Cluster 0 owns 0x100 while no cache below it holds the line: cpu0's
    // copy was evicted to the cluster mirror. Retiring the bridge without
    // salvage loses the line; only the cleared directory's wholesale log
    // says so, and only the golden image still holds the line.
    let mut sys = two_by_two();
    sys.write_at(&[0], 0, 0x100, &[5; 4]);
    for evict in [0x180, 0x200] {
        let _ = sys.read_at(&[0], 0, evict, 4); // same set of the 2-way cache
    }
    assert_eq!(sys.state_of(0, 0x100), LineState::Invalid);
    assert_eq!(sys.cluster_state_of(0, 0x100), LineState::Modified);
    sys.retire_bridge(0, false);
    let msg = panics(|| {
        let _ = sys.read_at(&[1], 0, 0x400, 4);
    });
    assert!(
        msg.contains("line 0x100: unowned but memory is stale"),
        "{msg}"
    );
}

#[test]
fn a_corrupted_tag_reaches_the_next_audit() {
    // The flipped tag is logged by `Bridge::set_cluster_state` alone.
    let mut sys = two_by_two();
    sys.write_at(&[0], 0, 0x1000, &[1; 4]);
    sys.bus_mut().inject_faults(FaultPlan::new(FaultConfig {
        stale_tag_rate: 1.0,
        ..FaultConfig::default()
    }));
    let (bridge, line) = sys.corrupt_inclusion_tag().expect("rate 1.0 fires");
    assert_eq!((bridge, line), (0, 0x1000));
    let msg = panics(|| {
        let _ = sys.read_at(&[1], 0, 0x5000, 4);
    });
    assert!(msg.contains("line 0x1000"), "{msg}");
}

#[test]
fn bridge_retirement_forces_a_full_audit() {
    let mut sys = two_by_two();
    sys.write_at(&[0], 0, 0x1000, &[5; 4]);
    sys.write_at(&[0], 1, 0x2000, &[6; 4]);
    let _ = sys.read_at(&[1], 0, 0x1000, 4);
    sys.retire_bridge(0, true);
    assert!(sys.bridge(0).degraded());
    // Degraded traffic keeps being audited after the full re-check.
    assert_eq!(sys.read_at(&[0], 0, 0x2000, 4), vec![6; 4]);
    sys.write_at(&[0], 1, 0x1000, &[8; 4]);
    assert_eq!(sys.read_at(&[1], 1, 0x1000, 4), vec![8; 4]);
    sys.verify().expect("consistent");
}

#[test]
fn lost_lines_reconciled_through_checker_mut_audit_fully() {
    let mut sys = two_by_two();
    sys.write_at(&[0], 0, 0x1000, &[9; 4]);
    sys.write_at(&[0], 0, 0x2000, &[8; 4]);
    sys.retire_bridge(0, false);
    // The loss is reported: accept memory as the new truth.
    for line in [0x1000u64, 0x2000] {
        let mem = sys.memory_peek(line, LINE);
        sys.checker_mut().unwrap().record_write(line, &mem);
    }
    let _ = sys.read_at(&[1], 0, 0x1000, 4);
    sys.write_at(&[1], 1, 0x2000, &[3; 4]);
    assert_eq!(sys.read_at(&[0], 1, 0x2000, 4), vec![3; 4]);
    sys.verify().expect("reconciled");
}

#[test]
fn a_tree_audits_lines_only_the_golden_image_holds() {
    // After the salvage, 0x100 is in no cache and no directory: only the
    // golden image and root memory still hold it. A flat bus audits such a
    // line; so must the tree.
    let mut sys = two_by_two();
    sys.write_at(&[0], 0, 0x100, &[5; 4]);
    sys.retire_bridge(0, true);
    sys.verify().expect("the salvage reached root memory");
    sys.bus_mut().memory_mut().write_line(0x100, &[0; LINE]);
    assert_eq!(sys.verify(), Err(Violation::StaleMemory { addr: 0x100 }));
    // The memory write was logged, so the next access audits the line.
    let msg = panics(|| {
        let _ = sys.read_at(&[1], 0, 0x400, 4);
    });
    assert!(
        msg.contains("0x100") && msg.contains("memory is stale"),
        "{msg}"
    );

    let mut flat = flat(&["moesi", "moesi"]);
    flat.write(0, 0x100, &[5; 4]);
    flat.flush(0, 0x100);
    flat.fabric_mut()
        .bus_mut()
        .memory_mut()
        .write_line(0x100, &[0; LINE]);
    assert_eq!(flat.verify(), Err(Violation::StaleMemory { addr: 0x100 }));
}

#[test]
fn corrupted_and_scrubbed_tags_are_audited() {
    let mut sys = two_by_two();
    sys.write_at(&[0], 0, 0x1000, &[1; 4]);
    let _ = sys.read_at(&[1], 0, 0x1000, 4);
    let _ = sys.read_at(&[1], 1, 0x3000, 4);
    sys.bus_mut().inject_faults(FaultPlan::new(FaultConfig {
        stale_tag_rate: 1.0,
        ..FaultConfig::default()
    }));
    let (bridge, line) = sys.corrupt_inclusion_tag().expect("rate 1.0 fires");
    sys.scrub_inclusion_tag(bridge, line);
    assert_eq!(sys.read_at(&[1], 1, 0x1000, 4), vec![1; 4]);
    sys.write_at(&[1], 0, 0x3000, &[4; 4]);
    assert_eq!(sys.read_at(&[0], 1, 0x3000, 4), vec![4; 4]);
    sys.verify().expect("scrubbed");
}

#[test]
fn leaving_tolerant_mode_audits_every_line() {
    let mut sys = two_by_two();
    let _ = sys.read_at(&[0], 0, 0x1000, 4); // cached, so the full audit visits it
    sys.tolerate_faults(true);
    // Changes made while tolerant are not logged line by line ...
    sys.bus_mut().memory_mut().write_bytes(0x1000, 0, &[9]);
    sys.tolerate_faults(false);
    // ... so the first audit afterwards re-checks everything.
    let msg = panics(|| {
        let _ = sys.read_at(&[1], 0, 0x5000, 4);
    });
    assert!(msg.contains("0x1000"), "{msg}");
}

#[test]
fn deep_tree_runs_and_global_sync_stay_consistent() {
    let protocols = ["moesi", "dragon", "write-through", "berkeley"];
    let mut sys = TreeBuilder::uniform(LINE, 2, 3, 2, 2, |leaf, cpu| {
        (
            by_name(protocols[(leaf + cpu) % protocols.len()], cpu as u64).unwrap(),
            Some(cfg()),
        )
    })
    .checking(true)
    .build();
    let leaves = sys.leaves();
    let mut streams: Vec<Vec<Box<dyn RefStream + Send>>> = (0..leaves)
        .map(|leaf| {
            (0..2)
                .map(|cpu| -> Box<dyn RefStream + Send> {
                    Box::new(DuboisBriggs::new(
                        leaf * 2 + cpu,
                        SharingModel {
                            line_size: LINE as u64,
                            ..SharingModel::default()
                        },
                        11,
                    ))
                })
                .collect()
        })
        .collect();
    sys.run(&mut streams, 150);
    assert!(sys.make_all_consistent() > 0);
    sys.run(&mut streams, 50);
    sys.verify().expect("consistent");
}

/// One step of the mutant-differential script.
#[derive(Clone, Copy)]
enum Op {
    Read(usize, u64),
    Write(usize, u64, [u8; 4]),
    Flush(usize, u64),
}

/// A fixed access script over eight lines that share two cache sets, so
/// fills evict, dirty victims write back and every protocol path runs.
fn script() -> Vec<Op> {
    script_on(3)
}

/// [`script`] for `cpus` processors.
fn script_on(cpus: u64) -> Vec<Op> {
    let mut x: u64 = 0x9E37_79B9;
    (0..300u64)
        .map(|i| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let r = x >> 33;
            let cpu = (r % cpus) as usize;
            let addr = 0x4000 + (r / cpus % 8) * 128 + (r / (cpus * 8) % 7) * 4;
            match r / 168 % 9 {
                0..=3 => Op::Read(cpu, addr),
                8 => Op::Flush(cpu, addr),
                _ => Op::Write(cpu, addr, (i as u32 + 1).to_le_bytes()),
            }
        })
        .collect()
}

fn mutant_machine(table: PolicyTable, checking: bool) -> System {
    SystemBuilder::new(LINE)
        .checking(checking)
        .cache(Box::new(TablePolicy::new(table)), cfg())
        .cache(by_name("moesi", 1).unwrap(), cfg())
        .cache(by_name("berkeley", 2).unwrap(), cfg())
        .build()
}

fn panic_message(err: &Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// The first failure when the system audits itself after every access.
fn first_failure_audited(table: PolicyTable) -> Option<(usize, String)> {
    let mut sys = mutant_machine(table, true);
    for (step, op) in script().into_iter().enumerate() {
        let run = catch_unwind(AssertUnwindSafe(|| match op {
            Op::Read(cpu, addr) => drop(sys.read(cpu, addr, 4)),
            Op::Write(cpu, addr, v) => sys.write(cpu, addr, &v),
            Op::Flush(cpu, addr) => drop(sys.flush(cpu, addr)),
        }));
        if let Err(err) = run {
            return Some((step, panic_message(&err)));
        }
    }
    None
}

/// The first failure of the same script on an unaudited machine, checked by
/// a separate oracle whose full `verify` runs after every access.
fn first_failure_full(table: PolicyTable) -> Option<(usize, String)> {
    let mut sys = mutant_machine(table, false);
    let mut ck = Checker::new(LINE);
    for (step, op) in script().into_iter().enumerate() {
        let run = catch_unwind(AssertUnwindSafe(|| {
            match op {
                Op::Read(cpu, addr) => ck.check_read(cpu, addr, &sys.read(cpu, addr, 4))?,
                Op::Write(cpu, addr, v) => {
                    ck.record_write(addr, &v);
                    sys.write(cpu, addr, &v);
                }
                Op::Flush(cpu, addr) => drop(sys.flush(cpu, addr)),
            }
            ck.verify(sys.fabric())
        }));
        match run {
            Err(err) => return Some((step, panic_message(&err))),
            Ok(Err(v)) => return Some((step, format!("consistency violation: {v}"))),
            Ok(Ok(())) => {}
        }
    }
    None
}

/// The canonical local and snoop bugs of the mutation sweep, one cell of
/// the preferred table at a time.
fn single_cell_mutants() -> Vec<PolicyTable> {
    let base = PolicyTable::preferred("mutant", CacheKind::CopyBack);
    let mut mutants = Vec::new();
    for state in LineState::ALL {
        for event in LocalEvent::ALL {
            let mutation = LocalAction::silent(LineState::Modified);
            if base.local(state, event).is_some_and(|c| c != mutation) {
                let mut table = base;
                table.set_local_unchecked(state, event, mutation);
                mutants.push(table);
            }
        }
        for event in BusEvent::ALL {
            let mutation = BusReaction::quiet(state);
            if base.bus(state, event).is_some_and(|c| c != mutation) {
                let mut table = base;
                table.set_bus_unchecked(state, event, mutation);
                mutants.push(table);
            }
        }
    }
    mutants
}

#[test]
fn single_cell_mutants_fail_at_the_same_step_with_the_same_violation() {
    // Whatever the incremental audit reports, and when, must be exactly
    // what a full audit after every access reports.
    let mut violations = 0;
    for table in single_cell_mutants() {
        let audited = first_failure_audited(table);
        assert_eq!(audited, first_failure_full(table));
        violations += usize::from(audited.is_some_and(|(_, m)| m.starts_with("consistency")));
    }
    assert!(
        violations >= 10,
        "only {violations} mutants broke an invariant"
    );
}

/// A 2×2 tree with a mutant cache in each leaf.
fn mutant_tree(table: PolicyTable) -> System {
    TreeBuilder::new(LINE)
        .checking(true)
        .child(
            TreeSpec::leaf()
                .cache(Box::new(TablePolicy::new(table)), cfg())
                .cache(by_name("moesi", 1).unwrap(), cfg()),
        )
        .child(
            TreeSpec::leaf()
                .cache(by_name("berkeley", 2).unwrap(), cfg())
                .cache(Box::new(TablePolicy::new(table)), cfg()),
        )
        .build()
}

/// Whether the first failure of the script on [`mutant_tree`] is its own
/// audit reporting a consistency violation. Processor `p` is cpu `p % 2` of
/// leaf `p / 2`; a flush pushes every owned line to root memory.
fn tree_audit_catches(table: PolicyTable) -> bool {
    let mut sys = mutant_tree(table);
    for op in script_on(4) {
        let run = catch_unwind(AssertUnwindSafe(|| match op {
            Op::Read(p, addr) => drop(sys.read_at(&[p / 2], p % 2, addr, 4)),
            Op::Write(p, addr, v) => sys.write_at(&[p / 2], p % 2, addr, &v),
            Op::Flush(..) => drop(sys.make_all_consistent()),
        }));
        if let Err(err) = run {
            return panic_message(&err).starts_with("consistency violation");
        }
    }
    false
}

#[test]
fn single_cell_mutants_break_the_tree_audit() {
    // Debug builds assert on every audit that the incremental verdict is
    // the full one, so this also runs each mutant differentially.
    let caught = single_cell_mutants()
        .into_iter()
        .filter(|&table| tree_audit_catches(table))
        .count();
    assert!(caught >= 14, "only {caught} mutants broke a tree invariant");
}

/// The default sharing model at 32-byte lines: the oracle-checked
/// benchmark's reference streams.
const SHARING: SharingModel = SharingModel {
    shared_lines: 16,
    private_lines: 64,
    p_shared: 0.2,
    p_write: 0.3,
    p_rereference: 0.5,
    line_size: LINE as u64,
};

/// The oracle's work on MOESI machines with empty 4 KiB 2-way caches, one
/// seed-7 stream per processor: a flat 4-cache bus for 200 timed steps,
/// and a 2×2 tree for 100 untimed ones.
fn seeded_oracle_work() -> [OracleWork; 2] {
    let cfg = CacheConfig::new(4096, LINE, 2, ReplacementKind::Lru);
    let protocol = |id: usize| by_name("moesi", 1000 + id as u64).expect("shipped");
    let stream =
        |id: usize| -> Box<dyn RefStream + Send> { Box::new(DuboisBriggs::new(id, SHARING, 7)) };

    let mut flat = SystemBuilder::new(LINE).checking(true);
    for id in 0..4 {
        flat = flat.cache(protocol(id), cfg);
    }
    let mut flat = flat.build();
    let mut streams: Vec<_> = (0..4).map(stream).collect();
    flat.run_timed(&mut streams, 200, 50);

    let mut tree = TreeBuilder::uniform(LINE, 2, 2, 1, 2, |leaf, cpu| {
        (protocol(leaf * 2 + cpu), Some(cfg))
    })
    .seed(7)
    .checking(true)
    .build();
    let mut streams: Vec<Vec<_>> = (0..2)
        .map(|leaf| (0..2).map(|cpu| stream(leaf * 2 + cpu)).collect())
        .collect();
    tree.run(&mut streams, 100);

    [flat, tree].map(|sys| sys.checker().expect("oracle on").work())
}

#[test]
fn the_oracle_work_at_seed_7_is_pinned() {
    // Exact, so a change to how much the oracle reads shows as a diff here.
    // Every audit re-checks the one line its access changed, and finds its
    // golden bytes where the access's own lookup left them: at most one
    // golden probe per access, none for a read of the line the previous
    // access looked up (frequent in the timed flat run, where a processor
    // often issues twice in a row).
    let [flat, tree] = seeded_oracle_work();
    assert_eq!(
        flat,
        OracleWork {
            audits: 432,
            audited_lines: 432,
            golden_probes: 634,
            holder_reads: 1881,
        },
        "flat bus, 800 accesses"
    );
    assert_eq!(
        tree,
        OracleWork {
            audits: 235,
            audited_lines: 235,
            golden_probes: 400,
            holder_reads: 1629,
        },
        "2x2 tree, 400 accesses"
    );
}
