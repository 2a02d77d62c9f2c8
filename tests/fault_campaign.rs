//! The graceful-degradation campaign: thousands of injected hardware faults
//! across several class members, every one audited by the consistency oracle.
//!
//! This is the robustness claim of the paper made executable. The §2.2 settle
//! window must mask every consistency-line glitch; the watchdog must retire
//! stalled and killed boards with any data loss *reported*; bounded retry
//! must drain abort storms; and the scrubber must catch every soft error.
//! Zero faults may be silent.

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::fault::{FaultConfig, FaultKind, FaultPlan};
use futurebus::RetryPolicy;
use moesi::protocols::moesi_preferred;
use moesi::LineState;
use mpsim::{run_campaign, run_liveness_probe, CampaignConfig, FaultClass, SystemBuilder};

fn campaign() -> CampaignConfig {
    // The default config: moesi, dragon, write-through and berkeley machines
    // under all five fault kinds, fixed seed.
    CampaignConfig::default()
}

#[test]
fn the_class_degrades_gracefully_under_a_thousand_faults() {
    let cfg = campaign();
    assert!(cfg.protocols.len() >= 3, "campaign spans the class");
    let report = run_campaign(&cfg).expect("campaign runs");
    let tally = report.tally();

    assert!(
        tally.injected() >= 1000,
        "campaign must be substantial: only {} faults injected",
        tally.injected()
    );
    assert_eq!(tally.silent(), 0, "silent corruption observed:\n{report}");

    // Glitches are *always* masked: the wired-OR settle window absorbs them
    // before any protocol logic sees the lines.
    let glitches = tally.count(FaultKind::Glitch, FaultClass::Masked);
    assert!(glitches > 100, "glitches must land in volume");
    assert_eq!(
        tally.count(FaultKind::Glitch, FaultClass::Detected)
            + tally.count(FaultKind::Glitch, FaultClass::Silent),
        0,
        "no glitch may escape the filter"
    );

    // Corruption is *never* masked-as-correct: every soft error is detected
    // by the scrubber (and recovered), or the campaign fails.
    let corrupt_detected = tally.count(FaultKind::CorruptMemory, FaultClass::Detected);
    assert!(corrupt_detected > 100, "soft errors must land in volume");
    assert_eq!(
        tally.count(FaultKind::CorruptMemory, FaultClass::Masked),
        0,
        "a corruption classified as masked would be an unaudited lie"
    );
    assert_eq!(tally.count(FaultKind::CorruptMemory, FaultClass::Silent), 0);

    // Abort storms drain through bounded retry.
    assert!(tally.count(FaultKind::AbortStorm, FaultClass::Detected) > 20);
    assert_eq!(tally.count(FaultKind::AbortStorm, FaultClass::Silent), 0);
}

#[test]
fn watchdog_retirements_keep_the_survivors_coherent() {
    // Crank stall/kill rates so retirements actually happen in volume, with
    // the other fault kinds off to isolate the watchdog path.
    let cfg = CampaignConfig {
        faults: FaultConfig {
            stall_rate: 0.01,
            kill_rate: 0.01,
            ..FaultConfig::default()
        },
        ..campaign()
    };
    let report = run_campaign(&cfg).expect("campaign runs");
    let tally = report.tally();
    assert!(
        report.retirements() >= 3,
        "retirements must actually occur, got {}",
        report.retirements()
    );
    assert_eq!(
        tally.silent(),
        0,
        "retirement broke an invariant:\n{report}"
    );
    assert_eq!(tally.count(FaultKind::Stall, FaultClass::Silent), 0);
    assert_eq!(tally.count(FaultKind::Kill, FaultClass::Silent), 0);
    // Stalls salvage; kills report losses; neither is ever masked (the
    // retirement itself is an observable event).
    assert_eq!(tally.count(FaultKind::Stall, FaultClass::Masked), 0);
    assert_eq!(tally.count(FaultKind::Kill, FaultClass::Masked), 0);
    for run in &report.runs {
        assert_eq!(
            run.retired.len() as u64,
            run.bus_stats.watchdog_retirements,
            "{}: retired set and stats must agree",
            run.protocol
        );
    }
}

#[test]
fn campaigns_reproduce_exactly_from_their_seed() {
    let cfg = CampaignConfig {
        steps: 600,
        ..campaign()
    };
    let a = run_campaign(&cfg).expect("first run");
    let b = run_campaign(&cfg).expect("second run");
    assert_eq!(a.tally().injected(), b.tally().injected());
    assert_eq!(a.retirements(), b.retirements());
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        assert_eq!(ra.bus_stats, rb.bus_stats, "{} diverged", ra.protocol);
        assert_eq!(ra.retired, rb.retired);
        assert_eq!(ra.verdicts.len(), rb.verdicts.len());
    }
}

#[test]
fn a_read_miss_returns_the_line_the_bus_delivered() {
    // `moesi-sim faults --seed 7 --rate 0.2`, every fault kind on. In its
    // hybrid run a read miss's victim write-back kills a snooper that owned
    // the line just read; the watchdog reports that line lost and
    // invalidates the reader's fresh copy. The read must still return the
    // bytes the bus delivered, taken from the line before it was filled.
    let rate = 0.2;
    let cfg = CampaignConfig {
        seed: 7,
        faults: FaultConfig {
            seed: 7 ^ 0xFA_017,
            glitch_rate: rate,
            stall_rate: rate / 100.0,
            kill_rate: rate / 100.0,
            storm_rate: rate / 2.0,
            corrupt_rate: rate,
            stale_tag_rate: rate,
            max_storm_rounds: 4,
            ..FaultConfig::default()
        },
        ..campaign()
    };
    let report = run_campaign(&cfg).expect("campaign runs");
    let tally = report.tally();
    assert!(report.retirements() > 0, "the scenario needs a retirement");
    assert_eq!(tally.silent(), 0, "silent corruption observed:\n{report}");
}

#[test]
fn a_read_miss_served_by_intervention_returns_the_supplied_line() {
    // The same hazard, pinned without a campaign: cpu 1 misses on a line cpu
    // 0 owns, cpu 0 intervenes, and the fill evicts a dirty victim whose
    // write-back kills cpu 0. The watchdog reports the line lost and
    // invalidates cpu 1's fresh copy, so the read's bytes must have been
    // copied out of the bus line buffer before the write-back ran. Each
    // seed rolls the kill afresh; the first that kills cpu 0 during the
    // write-back (not during the read, which memory would then serve) is
    // the scenario.
    const LINE: usize = 32;
    let cfg = CacheConfig::new(1024, LINE, 2, ReplacementKind::Lru);
    let (owned, victims) = (0x400, [0x000, 0x200]); // one 2-way set
    let scenario = (0..64).find_map(|seed| {
        let mut sys = (0..2)
            .fold(SystemBuilder::new(LINE), |b, _| {
                b.cache(Box::new(moesi_preferred()), cfg)
            })
            .build();
        sys.write(0, owned, &[0xA5; LINE]);
        for (i, victim) in victims.into_iter().enumerate() {
            sys.write(1, victim, &[i as u8 + 1; LINE]);
        }
        sys.fabric_mut()
            .bus_mut()
            .inject_faults(FaultPlan::new(FaultConfig {
                seed,
                kill_rate: 0.5,
                ..FaultConfig::default()
            }));
        let got = sys.read(1, owned, LINE);
        let bus = sys.bus_stats();
        (bus.interventions == 1 && bus.watchdog_retirements == 1).then_some((sys, got))
    });
    let (sys, got) = scenario.expect("some seed kills the supplier during the write-back");
    assert_eq!(
        got, [0xA5; LINE],
        "the read returns the line cpu 0 supplied"
    );
    assert_eq!(sys.bus_stats().lost_lines, 1);
    assert_eq!(
        sys.state_of(1, owned),
        LineState::Invalid,
        "the lost line's fresh copy was invalidated after the fill"
    );
    assert_eq!(
        sys.stats(1).write_backs,
        1,
        "the dirty victim was written back"
    );
}

#[test]
fn abort_storms_stay_within_the_retry_budget_for_every_protocol() {
    // The bounded-retry pin: a BS abort storm shorter than the retry budget
    // must drain for *every* shipped protocol — no transaction may abort
    // more than the policy's bound, and none may fail. A regression here
    // means the backoff ladder or the storm accounting broke.
    let protocols = [
        "moesi",
        "moesi-invalidating",
        "puzak",
        "hybrid",
        "write-through",
        "non-caching",
        "berkeley",
        "dragon",
        "write-once",
        "illinois",
        "firefly",
        "synapse",
        "random",
    ];
    let cfg = CampaignConfig {
        protocols: protocols.iter().map(|s| s.to_string()).collect(),
        steps: 400,
        faults: FaultConfig {
            storm_rate: 0.3,
            max_storm_rounds: 4,
            ..FaultConfig::default()
        },
        ..campaign()
    };
    let report = run_campaign(&cfg).expect("campaign runs");
    let tally = report.tally();
    assert!(
        tally.count(FaultKind::AbortStorm, FaultClass::Detected) > protocols.len() as u64,
        "storms must land in volume on every machine"
    );
    assert_eq!(tally.silent(), 0, "{report}");
    let bound = u64::from(RetryPolicy::default().abort_bound());
    for run in &report.runs {
        assert!(
            run.bus_stats.max_txn_aborts <= bound,
            "{}: a transaction aborted {} times, budget is {bound}",
            run.protocol,
            run.bus_stats.max_txn_aborts
        );
        assert!(
            run.bus_errors.is_empty(),
            "{}: an in-budget storm must drain, not fail: {:?}",
            run.protocol,
            run.bus_errors
        );
        assert!(
            run.bus_stats.retries > 0,
            "{}: storms must actually force retries",
            run.protocol
        );
    }
}

#[test]
fn hierarchy_campaign_degrades_gracefully_and_balances_the_ledger() {
    // The two-level acceptance bar: >= 1000 bridge-targeted faults across
    // >= 4 protocols x 2 clusters with zero silent corruption, every dirty
    // line at a bridge kill either salvaged or reported lost, and zero
    // liveness violations on in-budget (non-adversarial) storms.
    let cfg = CampaignConfig::hierarchy();
    let report = run_campaign(&cfg).expect("campaign runs");
    let tally = report.tally();
    assert!(cfg.protocols.len() >= 4 && cfg.tree.is_some_and(|t| t.clusters >= 2));
    assert!(
        tally.injected() >= 1000,
        "only {} faults injected",
        tally.injected()
    );
    assert_eq!(tally.silent(), 0, "silent corruption observed:\n{report}");
    assert!(
        report.retirements() > 0,
        "bridge retirements must actually occur"
    );
    assert_eq!(report.liveness_violations(), 0, "{report}");
    for run in &report.runs {
        assert_eq!(
            run.tree.salvaged_lines + run.tree.lost_lines,
            run.tree.dirty_at_retire,
            "{}: salvaged + lost must equal the dirty lines owned at kill time",
            run.protocol
        );
    }
}

#[test]
fn the_liveness_probe_separates_the_three_retry_policies() {
    // The seeded adversarial scenario: a 32-round phantom-BS storm against a
    // 16-retry budget. Naive flat retry provably livelocks (zero commits,
    // watchdog violations); capped backoff bounds the waste per transaction;
    // priority aging recovers every master with zero violations.
    let probe = run_liveness_probe(7, 24).expect("probe runs");
    assert!(probe.demonstrates_recovery(), "{probe}");
    let flat = &probe.outcomes[0];
    assert_eq!(flat.committed, 0, "{probe}");
    assert!(flat.liveness_violations > 0, "{probe}");
    let aged = &probe.outcomes[2];
    assert_eq!(aged.liveness_violations, 0, "{probe}");
    assert!(aged.aging_promotions > 0, "{probe}");
}
