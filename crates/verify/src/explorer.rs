//! Breadth-first exhaustive exploration of the concrete machine.
//!
//! A node is a schedule prefix: a [`Trace`]'s steps. Expanding it rebuilds
//! the [`replay::machine`], re-executes the prefix with its recorded
//! choices, and then tries one more step for every (module, line, operation)
//! the machine does not turn into a no-op, under every combination of the
//! choice sets the modules are offered along the way. Those combinations are
//! enumerated as index sequences over the recorded [`Offer`]s: run with a
//! sequence, then advance its last index that has an untried alternative.
//!
//! States are deduplicated on a canonical encoding of every modelled line —
//! its memory bytes, its golden bytes and every module's (state, bytes) —
//! and the first failure unwinds into a **minimal-length** counterexample
//! (BFS explores shortest schedules first), which is itself a replayable
//! [`Trace`].

use crate::Shape;
use moesi::protocols::{Choices, Offer, Pick, ScriptHandle};
use mpsim::replay::{self, Failure, ReplayOp, Trace, TraceStep};
use mpsim::{Checker, Fabric};
use std::collections::{HashSet, VecDeque};

/// Bytes per line in the explored machine.
const LINE_SIZE: usize = 8;

/// Exploration limits.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Stop expanding after this many distinct states (0 = unbounded).
    pub max_states: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_states: 2_000_000,
        }
    }
}

/// A counterexample: a replayable schedule plus the failure it exposes.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The schedule, feedable straight into [`mpsim::replay::replay`]; its
    /// last step is the one that failed.
    pub trace: Trace,
    /// The failure the concrete machine reported at the last step.
    pub defect: Failure,
}

/// The result of one exhaustive exploration.
#[derive(Debug)]
pub struct Report {
    /// Distinct reachable states admitted (each invariant-checked).
    pub explored: usize,
    /// Transitions examined (step executions, including duplicates).
    pub transitions: usize,
    /// Largest frontier (queue length) seen during the search.
    pub frontier_peak: usize,
    /// Depth (schedule length) of the deepest admitted state.
    pub depth: usize,
    /// Whether the state cap stopped the search before exhaustion.
    pub truncated: bool,
    /// The first (minimal) defect found, if any.
    pub counterexample: Option<Counterexample>,
}

impl Report {
    /// True when the whole reachable space was explored defect-free.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.counterexample.is_none() && !self.truncated
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.counterexample {
            Some(cx) => {
                writeln!(
                    f,
                    "VIOLATION after {} states ({} transitions): {}",
                    self.explored, self.transitions, cx.defect
                )?;
                write!(f, "{}", cx.trace)
            }
            None => write!(
                f,
                "{}: {} states, {} transitions, depth {}, frontier peak {}",
                if self.truncated {
                    "TRUNCATED"
                } else {
                    "verified"
                },
                self.explored,
                self.transitions,
                self.depth,
                self.frontier_peak
            ),
        }
    }
}

/// An admitted state: the step that reached it from its parent.
struct Node {
    parent: usize,
    step: Option<TraceStep>,
}

/// The explored configuration.
struct Explorer {
    script: ScriptHandle,
    lines: u64,
    values: u8,
    check_exclusive_clean: bool,
}

impl Explorer {
    /// A fresh machine with `prefix` executed on it.
    fn at(&self, prefix: &[TraceStep]) -> (Fabric, Checker) {
        let mut fabric = replay::machine(&self.script, LINE_SIZE);
        let mut checker = Checker::new(LINE_SIZE);
        checker.check_exclusive_clean = self.check_exclusive_clean;
        for step in prefix {
            replay::load(&self.script, step);
            let verdict =
                replay::execute(&mut fabric, &mut checker, step.module, step.line, step.op);
            debug_assert!(verdict.is_ok(), "an admitted prefix replays clean");
        }
        self.script.clear();
        (fabric, checker)
    }

    /// Every operation that is not a no-op on `fabric`: read misses, writes
    /// of every value, passes of owned lines and flushes of valid ones.
    fn candidates(&self, fabric: &Fabric) -> Vec<(usize, u64, ReplayOp)> {
        let mut out = Vec::new();
        for module in 0..fabric.nodes() {
            for line in 0..self.lines {
                let state = fabric.controller(module).state_of(line * LINE_SIZE as u64);
                if !state.is_valid() {
                    out.push((module, line, ReplayOp::Read));
                }
                out.extend((0..self.values).map(|v| (module, line, ReplayOp::Write(v))));
                if state.is_owned() {
                    out.push((module, line, ReplayOp::Pass));
                }
                if state.is_valid() {
                    out.push((module, line, ReplayOp::Flush));
                }
            }
        }
        out
    }

    /// The deduplication key: per line, memory, golden, then every module's
    /// (state, bytes), 0 standing for a line not resident.
    fn encode(&self, fabric: &Fabric, checker: &Checker) -> Box<[u8]> {
        let mut key = Vec::new();
        for line in 0..self.lines {
            let addr = line * LINE_SIZE as u64;
            key.extend_from_slice(fabric.bus().memory().peek(addr));
            key.extend(checker.golden_bytes(addr, LINE_SIZE));
            for ctrl in fabric.controllers() {
                match ctrl.cache().and_then(|c| c.lookup(addr)) {
                    Some(entry) => {
                        key.push(entry.state as u8 + 1);
                        key.extend_from_slice(entry.data);
                    }
                    None => key.push(0),
                }
            }
        }
        key.into_boxed_slice()
    }
}

/// The recorded step: the master's local picks and every snooper's, in
/// decision order. Empty choice sets picked nothing and record nothing.
fn record(module: usize, line: u64, op: ReplayOp, offers: &[Offer]) -> TraceStep {
    let mut step = TraceStep {
        module,
        line,
        op,
        local_choices: Vec::new(),
        snoop_choices: Vec::new(),
    };
    for offer in offers {
        match offer.pick {
            Some(Pick::Local(action)) => step.local_choices.push(action),
            Some(Pick::Bus(reaction)) => step.snoop_choices.push((offer.module, reaction)),
            None => {}
        }
    }
    step
}

/// The next index sequence after `picks` over `offers` (later decisions vary
/// fastest), or `None` when every combination has run.
fn advance(mut picks: Vec<usize>, offers: &[Offer]) -> Option<Vec<usize>> {
    picks.resize(offers.len(), 0);
    let i = (0..offers.len()).rfind(|&i| picks[i] + 1 < offers[i].options)?;
    picks.truncate(i + 1);
    picks[i] += 1;
    Some(picks)
}

/// The steps from the root to node `at`.
fn path(nodes: &[Node], mut at: usize) -> Vec<TraceStep> {
    let mut steps = Vec::new();
    while let Some(step) = &nodes[at].step {
        steps.push(step.clone());
        at = nodes[at].parent;
    }
    steps.reverse();
    steps
}

/// Exhaustively explores the machine of `modules` (one [`Choices`] per
/// module, in bus order) over `shape`, auditing every step. Returns on the
/// first failure, with a minimal counterexample, or when the space is
/// exhausted. `check_exclusive_clean` is the oracle's invariant-5 switch.
#[must_use]
pub fn explore(modules: Vec<Choices>, shape: &Shape, check_exclusive_clean: bool) -> Report {
    let kinds = modules.iter().map(Choices::kind).collect();
    let explorer = Explorer {
        script: ScriptHandle::new(modules),
        lines: shape.lines as u64,
        values: shape.values,
        check_exclusive_clean,
    };
    let mut nodes = vec![Node {
        parent: 0,
        step: None,
    }];
    let mut seen = HashSet::new();
    let (fabric, checker) = explorer.at(&[]);
    seen.insert(explorer.encode(&fabric, &checker));
    let mut queue = VecDeque::from([0]);
    let mut report = Report {
        explored: 1,
        transitions: 0,
        frontier_peak: 1,
        depth: 0,
        truncated: false,
        counterexample: None,
    };

    while let Some(at) = queue.pop_front() {
        let prefix = path(&nodes, at);
        let depth = prefix.len() + 1;
        let (fabric, _) = explorer.at(&prefix);
        for (module, line, op) in explorer.candidates(&fabric) {
            let mut picks = Some(Vec::new());
            while let Some(next) = picks {
                let (mut fabric, mut checker) = explorer.at(&prefix);
                explorer.script.push_picks(&next);
                let verdict = replay::execute(&mut fabric, &mut checker, module, line, op);
                let offers = explorer.script.take_offers();
                let step = record(module, line, op, &offers);
                report.transitions += 1;
                if let Err(defect) = verdict {
                    let mut steps = prefix;
                    steps.push(step);
                    let trace = Trace {
                        line_size: LINE_SIZE,
                        modules: kinds,
                        steps,
                        faults: Vec::new(),
                        expected: defect.to_string(),
                    };
                    report.counterexample = Some(Counterexample { trace, defect });
                    return report;
                }
                if seen.insert(explorer.encode(&fabric, &checker)) {
                    nodes.push(Node {
                        parent: at,
                        step: Some(step),
                    });
                    queue.push_back(nodes.len() - 1);
                    report.explored += 1;
                    report.depth = report.depth.max(depth);
                    report.frontier_peak = report.frontier_peak.max(queue.len());
                    if shape.limits.max_states != 0 && report.explored >= shape.limits.max_states {
                        report.truncated = true;
                        return report;
                    }
                }
                picks = advance(next, &offers);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer(options: usize) -> Offer {
        Offer {
            module: 0,
            pick: None,
            options,
        }
    }

    #[test]
    fn advance_counts_through_every_combination_later_decisions_first() {
        let offers = [offer(2), offer(1), offer(3)];
        let mut seen = vec![Vec::new()];
        let mut picks = advance(Vec::new(), &offers);
        while let Some(p) = picks {
            seen.push(p.clone());
            picks = advance(p, &offers);
        }
        assert_eq!(
            seen,
            vec![
                vec![],
                vec![0, 0, 1],
                vec![0, 0, 2],
                vec![1],
                vec![1, 0, 1],
                vec![1, 0, 2],
            ]
        );
    }
}
