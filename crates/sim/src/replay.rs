//! Deterministic schedule replay: the concrete machine the model checker
//! explores, and the re-execution of its counterexamples.
//!
//! [`machine`] builds real [`CacheController`]s on a real `Futurebus`, every
//! module driven by a scripted policy ([`ScriptHandle::protocol`]) on one
//! shared [`ScriptHandle`]. The exhaustive explorer in `crates/verify` runs
//! that machine one [`execute`]d step at a time; when a step fails it emits
//! a [`Trace`]: the schedule of processor operations together with the
//! Table 1/2 entry every module chose at every decision point. [`replay`]
//! rebuilds the same machine, [`load`]s each step's entries and executes the
//! schedule, auditing every step with the [`Checker`]. A counterexample
//! reproduces its failure at the same step, deterministically, every time.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::{Choices, ScriptHandle};
use moesi::{BusReaction, CacheKind, LocalAction};

use futurebus::TimingConfig;
use std::fmt;

use crate::checker::{Checker, Violation};
use crate::controller::CacheController;
use crate::fabric::Fabric;

/// One processor operation in a replayed schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayOp {
    /// Read the full line and compare it against the golden image.
    Read,
    /// Write the line to the single byte value carried here (the explorer's
    /// data domain maps value `v` to a line of `v`-bytes).
    Write(u8),
    /// Push the dirty line to memory, keeping the copy (Table 1 note 3).
    Pass,
    /// Push if dirty, then discard the copy (Table 1 note 4).
    Flush,
}

impl fmt::Display for ReplayOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayOp::Read => f.write_str("Read"),
            ReplayOp::Write(v) => write!(f, "Write({v})"),
            ReplayOp::Pass => f.write_str("Pass"),
            ReplayOp::Flush => f.write_str("Flush"),
        }
    }
}

/// One step of a counterexample schedule: who did what, and which permitted
/// entries every involved module picked.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// The module issuing the local event.
    pub module: usize,
    /// The line index the event targets (address = `line * line_size`).
    pub line: u64,
    /// The processor operation.
    pub op: ReplayOp,
    /// The master's local-action choices, in consultation order (one entry
    /// normally; several for `Read>Write` sequences and victim write-backs).
    pub local_choices: Vec<LocalAction>,
    /// Every snooper's chosen reaction, in bus order: transaction by
    /// transaction (including BS retries), module index ascending within one
    /// address cycle. Only modules with a valid copy are consulted.
    pub snoop_choices: Vec<(usize, BusReaction)>,
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{} line{} {}", self.module, self.line, self.op)?;
        if !self.local_choices.is_empty() {
            let picks: Vec<String> = self.local_choices.iter().map(ToString::to_string).collect();
            write!(f, " via [{}]", picks.join(" then "))?;
        }
        for (m, r) in &self.snoop_choices {
            write!(f, "; cpu{m} snoops {r}")?;
        }
        Ok(())
    }
}

/// A scripted hardware fault: before executing step `step`, arm the bus
/// watchdog so `module` stalls (and is retired) the next time it snoops.
///
/// This pins watchdog recovery behaviour to a deterministic schedule — the
/// replay equivalent of the randomised injection in `futurebus::fault`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayFault {
    /// Index of the step before which the stall is armed.
    pub step: usize,
    /// The module that stops responding.
    pub module: usize,
    /// True when its cache RAM stays readable (dirty lines salvaged); false
    /// for a dead board (dirty lines lost, survivors invalidated).
    pub salvage: bool,
}

impl fmt::Display for ReplayFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cpu{} before step {}",
            if self.salvage { "stall" } else { "kill" },
            self.module,
            self.step
        )
    }
}

/// A complete counterexample: machine shape plus the violating schedule.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Bytes per line in the replayed machine.
    pub line_size: usize,
    /// One cache kind per module, in bus order.
    pub modules: Vec<CacheKind>,
    /// The schedule, shortest-first (the explorer searches breadth-first, so
    /// the trace is minimal in step count).
    pub steps: Vec<TraceStep>,
    /// Scripted stall/kill faults to arm during the replay (empty for pure
    /// consistency counterexamples).
    pub faults: Vec<ReplayFault>,
    /// The failure the explorer observed (display form), for reporting.
    pub expected: String,
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counterexample over {} modules ({} steps) — expected: {}",
            self.modules.len(),
            self.steps.len(),
            self.expected
        )?;
        for fault in &self.faults {
            writeln!(f, "  fault: {fault}")?;
        }
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "  {i}: {step}")?;
        }
        Ok(())
    }
}

/// What went wrong at a step: the oracle's verdict, or an error the
/// tolerant fabric logged (a bus error or a table-driven fault, after which
/// the access completed memory-direct).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// A shared-image invariant broke, or a read returned the wrong bytes.
    Violation(Violation),
    /// The fabric logged an error.
    Error(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Violation(v) => v.fmt(f),
            Failure::Error(e) => write!(f, "fabric error: {e}"),
        }
    }
}

/// The result of replaying a [`Trace`] on the concrete machine.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The failure hit, with the index of the step that triggered it.
    pub failure: Option<(usize, Failure)>,
    /// Steps executed (all of them when no failure fired).
    pub steps_executed: usize,
    /// Times a scripted module was consulted beyond its script (a mismatch
    /// between the schedule and the machine; 0 for a faithful replay).
    pub script_underflows: usize,
    /// Modules the bus watchdog retired during the replay, ascending.
    pub retired: Vec<usize>,
}

impl ReplayOutcome {
    /// True when the replay reproduced a failure.
    #[must_use]
    pub fn reproduced(&self) -> bool {
        self.failure.is_some()
    }
}

/// Builds the machine replay and exploration run: one scripted module
/// per module of `script`, each caching one with a single 1-way set, so that
/// two lines compete for it and interact through eviction. The fabric
/// tolerates errors, logging them for [`execute`] to report.
#[must_use]
pub fn machine(script: &ScriptHandle, line_size: usize) -> Fabric {
    let controllers = (0..script.modules())
        .map(|id| {
            let protocol = script.protocol(id);
            let cfg = (script.kind(id) != CacheKind::NonCaching)
                .then(|| CacheConfig::new(line_size, line_size, 1, ReplacementKind::Lru));
            CacheController::new(id, Box::new(protocol), cfg, 1)
        })
        .collect();
    let mut fabric = Fabric::new(line_size, TimingConfig::default(), controllers);
    fabric.tolerate_bus_errors(true);
    fabric
}

/// Queues `step`'s recorded entries on `script`: the master's local
/// decisions and every snooper's reactions, in the order the bus will
/// consult them. Unconsumed entries of earlier steps are dropped.
pub fn load(script: &ScriptHandle, step: &TraceStep) {
    script.clear();
    for action in &step.local_choices {
        script.push_local(step.module, *action);
    }
    for (m, reaction) in &step.snoop_choices {
        script.push_bus(*m, *reaction);
    }
}

/// Executes processor operation `op` of `module` on `line` and audits the
/// result: the first error the fabric logged, else a read mismatch, else
/// the first broken invariant.
///
/// # Errors
///
/// Returns the step's [`Failure`].
pub fn execute(
    fabric: &mut Fabric,
    checker: &mut Checker,
    module: usize,
    line: u64,
    op: ReplayOp,
) -> Result<(), Failure> {
    let size = fabric.line_size();
    let addr = line * size as u64;
    let read = match op {
        ReplayOp::Read => {
            let got = fabric.read(module, addr, size);
            checker.check_read(module, addr, &got)
        }
        ReplayOp::Write(v) => {
            let bytes = vec![v; size];
            checker.record_write(addr, &bytes);
            fabric.write_fast(module, addr, &bytes);
            Ok(())
        }
        ReplayOp::Pass => {
            fabric.pass(module, addr);
            Ok(())
        }
        ReplayOp::Flush => {
            fabric.flush(module, addr);
            Ok(())
        }
    };
    if let Some(error) = fabric.drain_bus_errors().into_iter().next() {
        return Err(Failure::Error(error));
    }
    read.and_then(|()| checker.verify(fabric))
        .map_err(Failure::Violation)
}

/// Replays `trace` on a freshly built [`machine`].
///
/// `check_exclusive_clean` mirrors [`Checker::check_exclusive_clean`]; pass
/// `false` when the trace came from an exploration that relaxed invariant 5
/// (mixed systems containing the adapted Write-Once protocol).
#[must_use]
pub fn replay(trace: &Trace, check_exclusive_clean: bool) -> ReplayOutcome {
    let script = ScriptHandle::new(
        trace
            .modules
            .iter()
            .map(|&kind| Choices::Permitted(kind))
            .collect(),
    );
    let mut fabric = machine(&script, trace.line_size);
    let mut checker = Checker::new(trace.line_size);
    checker.check_exclusive_clean = check_exclusive_clean;

    let mut outcome = ReplayOutcome {
        failure: None,
        steps_executed: 0,
        script_underflows: 0,
        retired: Vec::new(),
    };
    for (idx, step) in trace.steps.iter().enumerate() {
        // Arm any fault scheduled for this step: the named module stalls the
        // next time it would snoop, and the watchdog retires it.
        for fault in &trace.faults {
            if fault.step == idx {
                fabric.bus_mut().stall_module(fault.module, fault.salvage);
            }
        }
        outcome.script_underflows += script.underflows();
        load(&script, step);
        let verdict = execute(&mut fabric, &mut checker, step.module, step.line, step.op);
        outcome.steps_executed = idx + 1;
        if let Err(failure) = verdict {
            outcome.failure = Some((idx, failure));
            break;
        }
    }
    outcome.script_underflows += script.underflows();
    outcome.retired = fabric.bus().retired();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use moesi::table;
    use moesi::{BusOp, LineState, LocalEvent, MasterSignals, ResultState};

    fn copyback_pair() -> Vec<CacheKind> {
        vec![CacheKind::CopyBack; 2]
    }

    /// The preferred write-miss choreography: cpu0 RWITM, then cpu1 reads and
    /// the owner intervenes. Entirely legal — replay must be clean.
    #[test]
    fn legal_schedule_replays_without_violation() {
        let rwitm =
            table::permitted_local(LineState::Invalid, LocalEvent::Write, CacheKind::CopyBack)
                .into_iter()
                .find(|a| a.bus_op == BusOp::Read)
                .expect("RWITM entry");
        let read_miss =
            table::preferred_local(LineState::Invalid, LocalEvent::Read, CacheKind::CopyBack)
                .unwrap();
        let owner_reacts =
            table::preferred_bus(LineState::Modified, moesi::BusEvent::CacheRead).unwrap();
        let trace = Trace {
            line_size: 8,
            modules: copyback_pair(),
            steps: vec![
                TraceStep {
                    module: 0,
                    line: 0,
                    op: ReplayOp::Write(3),
                    local_choices: vec![rwitm],
                    snoop_choices: vec![],
                },
                TraceStep {
                    module: 1,
                    line: 0,
                    op: ReplayOp::Read,
                    local_choices: vec![read_miss],
                    snoop_choices: vec![(0, owner_reacts)],
                },
            ],
            faults: Vec::new(),
            expected: "none".into(),
        };
        let out = replay(&trace, true);
        assert!(
            !out.reproduced(),
            "legal schedule flagged: {:?}",
            out.failure
        );
        assert_eq!(out.steps_executed, 2);
        assert_eq!(out.script_underflows, 0);
    }

    /// A hand-corrupted schedule: the snooper *keeps* its S copy through an
    /// invalidating broadcast — the replayer must catch the stale copy.
    #[test]
    fn corrupt_schedule_reproduces_a_violation() {
        let fill =
            table::preferred_local(LineState::Invalid, LocalEvent::Read, CacheKind::CopyBack)
                .unwrap();
        let rwitm = LocalAction::new(
            ResultState::Fixed(LineState::Modified),
            MasterSignals::CA_IM,
            BusOp::Read,
        );
        // Illegal reaction: ignore a read-invalidate while holding S.
        let stubborn = BusReaction::hit(LineState::Shareable);
        let trace = Trace {
            line_size: 8,
            modules: copyback_pair(),
            steps: vec![
                TraceStep {
                    module: 1,
                    line: 0,
                    op: ReplayOp::Read,
                    local_choices: vec![fill],
                    snoop_choices: vec![],
                },
                TraceStep {
                    module: 0,
                    line: 0,
                    op: ReplayOp::Write(5),
                    local_choices: vec![rwitm],
                    snoop_choices: vec![(1, stubborn)],
                },
            ],
            faults: Vec::new(),
            expected: "cpu1 keeps a copy past cpu0's invalidate".into(),
        };
        let out = replay(&trace, true);
        let (step, violation) = out.failure.expect("violation reproduced");
        assert_eq!(step, 1);
        assert!(
            matches!(
                violation,
                Failure::Violation(Violation::ExclusivityViolated { .. })
            ),
            "{violation}"
        );
        // Determinism: run it again, same answer.
        let again = replay(&trace, true);
        assert_eq!(again.failure.map(|(s, _)| s), Some(1));
    }

    /// cpu0 dirties a line, then stalls mid-snoop of cpu1's read. The
    /// watchdog must retire it, salvage the dirty line to memory, and let the
    /// read complete with the correct data — no violation anywhere.
    #[test]
    fn stalled_owner_is_retired_and_its_dirty_line_salvaged() {
        let rwitm =
            table::permitted_local(LineState::Invalid, LocalEvent::Write, CacheKind::CopyBack)
                .into_iter()
                .find(|a| a.bus_op == BusOp::Read)
                .expect("RWITM entry");
        let read_miss =
            table::preferred_local(LineState::Invalid, LocalEvent::Read, CacheKind::CopyBack)
                .unwrap();
        let trace = Trace {
            line_size: 8,
            modules: copyback_pair(),
            steps: vec![
                TraceStep {
                    module: 0,
                    line: 0,
                    op: ReplayOp::Write(3),
                    local_choices: vec![rwitm],
                    snoop_choices: vec![],
                },
                // No snoop choices for cpu0: it is retired before it could
                // react, so its script is never consulted.
                TraceStep {
                    module: 1,
                    line: 0,
                    op: ReplayOp::Read,
                    local_choices: vec![read_miss],
                    snoop_choices: vec![],
                },
            ],
            faults: vec![ReplayFault {
                step: 1,
                module: 0,
                salvage: true,
            }],
            expected: "none — degradation is graceful".into(),
        };
        let out = replay(&trace, true);
        assert!(
            !out.reproduced(),
            "salvaged stall must stay coherent: {:?}",
            out.failure
        );
        assert_eq!(out.retired, vec![0]);
        assert_eq!(out.steps_executed, 2);
        assert_eq!(out.script_underflows, 0);
    }

    /// Same schedule, but the board dies outright: its dirty line is lost and
    /// the loss must surface as a reported violation at the read — never as a
    /// silently wrong value later.
    #[test]
    fn killed_owner_loses_its_line_and_the_loss_is_reported() {
        let rwitm =
            table::permitted_local(LineState::Invalid, LocalEvent::Write, CacheKind::CopyBack)
                .into_iter()
                .find(|a| a.bus_op == BusOp::Read)
                .expect("RWITM entry");
        let read_miss =
            table::preferred_local(LineState::Invalid, LocalEvent::Read, CacheKind::CopyBack)
                .unwrap();
        let trace = Trace {
            line_size: 8,
            modules: copyback_pair(),
            steps: vec![
                TraceStep {
                    module: 0,
                    line: 0,
                    op: ReplayOp::Write(3),
                    local_choices: vec![rwitm],
                    snoop_choices: vec![],
                },
                TraceStep {
                    module: 1,
                    line: 0,
                    op: ReplayOp::Read,
                    local_choices: vec![read_miss],
                    snoop_choices: vec![],
                },
            ],
            faults: vec![ReplayFault {
                step: 1,
                module: 0,
                salvage: false,
            }],
            expected: "the killed owner's data is lost".into(),
        };
        let out = replay(&trace, true);
        let (step, violation) = out.failure.expect("data loss must be reported");
        assert_eq!(step, 1, "detected at the very read that missed the data");
        assert!(
            matches!(
                violation,
                Failure::Violation(Violation::ReadMismatch { cpu: 1, .. })
            ),
            "{violation}"
        );
        assert_eq!(out.retired, vec![0]);
        // Determinism: the loss reproduces identically.
        let again = replay(&trace, true);
        assert_eq!(again.failure.map(|(s, _)| s), Some(1));
    }
}
