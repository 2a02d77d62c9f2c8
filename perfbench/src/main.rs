//! The benchmark of record: host throughput of flat, tree and oracle-checked
//! simulation, with a traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flat-write --seed 7 --seconds 10 --trace 0
//! ```
//!
//! One thread runs a closed loop: the workload's fixed job list, one
//! job after another, pass after pass, until `--seconds` have gone by. Each
//! pass first builds every machine and stream of the list (the set-up), then
//! times each job's run call. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it runs half the time untraced and half traced,
//! prints the per-layer metrics and writes the spans to `perfbench/out/`.
//! The last line of standard output is one JSON object.
//!
//! `--print-digests` prints the job digests for `--workload` at `--seed`,
//! the format of `reference/digests.txt`.

mod jobs;
#[cfg(test)]
mod tests;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use moesi::json::JsonObject;

use jobs::{Counters, Job, Machine, Streams};
use trace::{Layer, Tally, LAYERS};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// `workload seed job digest` lines for the default and held-out seeds.
const REFERENCE: &str = include_str!("../reference/digests.txt");

const USAGE: &str = "usage: perfbench --workload <flat-read|flat-write|tree|checked> \
                     --seed <n> --seconds <s> --trace <0|1> [--print-digests]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: jobs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        print_digests: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            args.print_digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("a duration in (0, 3600] seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !jobs::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            jobs::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The committed reference digests of `workload` at `seed` (empty for a
/// seed that has none).
fn references(workload: &str, seed: u64) -> BTreeMap<String, u64> {
    REFERENCE
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (w, s, job, d) = (f.next()?, f.next()?, f.next()?, f.next()?);
            if w != workload || s.parse() != Ok(seed) {
                return None;
            }
            Some((job.to_string(), u64::from_str_radix(d, 16).ok()?))
        })
        .collect()
}

/// One pass over a job list.
#[derive(Default)]
struct Pass {
    /// References completed by jobs that succeeded.
    ops: u64,
    /// Host ns inside each job's run call (`None` if the job failed).
    job_ns: Vec<Option<u64>>,
    /// Host ns building every machine of the pass.
    build_ns: u64,
    /// Host ns constructing every stream of the pass.
    streams_ns: u64,
    /// Each job's counters, or why it failed.
    outcomes: Vec<Result<Counters, String>>,
}

impl Pass {
    /// Counters summed over the jobs that succeeded.
    fn total(&self) -> Counters {
        let mut t = Counters::default();
        for c in self.outcomes.iter().flatten() {
            t.add(c);
        }
        t
    }
}

fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(jobs::panic_message(&*p)))
}

/// Runs every job of the list once. Job ids are `pass * 1000 + index`.
fn run_pass(list: &[Job], seed: u64, traced: bool, pass: u64) -> Pass {
    let id = |i: usize| pass * 1000 + i as u64;
    let mut p = Pass::default();

    let t = Instant::now();
    let mut machines: Vec<Result<Machine, String>> = list
        .iter()
        .enumerate()
        .map(|(i, job)| {
            guarded(|| {
                Ok(trace::span(id(i), Layer::Build, || {
                    jobs::build(job, seed, traced)
                }))
            })
        })
        .collect();
    p.build_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let mut streams: Vec<Result<Streams, String>> = list
        .iter()
        .enumerate()
        .map(|(i, job)| {
            guarded(|| {
                Ok(trace::span(id(i), Layer::Streams, || {
                    jobs::streams(job, seed, traced)
                }))
            })
        })
        .collect();
    p.streams_ns = t.elapsed().as_nanos() as u64;

    for (i, job) in list.iter().enumerate() {
        let machine = std::mem::replace(&mut machines[i], Err(String::new()));
        let stream = std::mem::replace(&mut streams[i], Err(String::new()));
        let mut run_ns = 0;
        let outcome = match (machine, stream) {
            (Ok(mut m), Ok(mut s)) => guarded(|| {
                let before = trace::snapshot();
                let start = trace::now_ns();
                let t = Instant::now();
                let timed = trace::span(id(i), Layer::Run, || jobs::run(job, &mut m, &mut s));
                run_ns = t.elapsed().as_nanos() as u64;
                trace::fold_calls(id(i), start, &before);
                trace::span(id(i), Layer::Verify, || {
                    jobs::counters(job, &m, timed.as_ref())
                })
            }),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        if outcome.is_ok() {
            p.ops += job.refs();
        }
        p.job_ns.push(outcome.is_ok().then_some(run_ns));
        p.outcomes.push(outcome);
    }
    p
}

/// The correctness check: every job's digest must equal the committed
/// reference (where one exists for the seed) and the digest of its first
/// run in this process.
struct Check {
    names: Vec<String>,
    reference: BTreeMap<String, u64>,
    first: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

impl Check {
    fn new(list: &[Job], reference: BTreeMap<String, u64>) -> Self {
        Check {
            names: list.iter().map(Job::name).collect(),
            reference,
            first: vec![None; list.len()],
            attempted: 0,
            failed: 0,
        }
    }

    fn record(&mut self, pass: &Pass) {
        for (i, outcome) in pass.outcomes.iter().enumerate() {
            self.attempted += 1;
            let name = &self.names[i];
            let err = match outcome {
                Err(e) => Some(e.clone()),
                Ok(c) => {
                    let d = c.digest();
                    let first = *self.first[i].get_or_insert(d);
                    match self.reference.get(name) {
                        _ if d != first => {
                            Some(format!("digest {d:016x} != first run {first:016x}"))
                        }
                        Some(&r) if d != r => {
                            Some(format!("digest {d:016x} != reference {r:016x}"))
                        }
                        None if !self.reference.is_empty() => Some("no reference digest".into()),
                        _ => None,
                    }
                }
            };
            if let Some(e) = err {
                if self.failed < 10 {
                    eprintln!("perfbench: job {name} failed: {e}");
                }
                self.failed += 1;
            }
        }
    }
}

/// The fastest timings seen over a run's passes.
///
/// The host's speed comes and goes in episodes of seconds (another tenant
/// on the same physical core can halve a high-IPC loop's speed), which moves
/// a median of passes by whole modes. Noise only ever slows a deterministic
/// job, so each job's fastest run (and the fastest set-up) is the steady
/// estimate of its cost. Only minima are kept, so memory does not grow with
/// the number of passes.
struct Best {
    passes: usize,
    job_ns: Vec<Option<u64>>,
    build_ns: u64,
    streams_ns: u64,
    setup_ns: u64,
}

impl Best {
    fn new(jobs: usize) -> Self {
        Best {
            passes: 0,
            job_ns: vec![None; jobs],
            build_ns: u64::MAX,
            streams_ns: u64::MAX,
            setup_ns: u64::MAX,
        }
    }

    fn add(&mut self, p: &Pass) {
        self.passes += 1;
        for (b, ns) in self.job_ns.iter_mut().zip(&p.job_ns) {
            *b = match (*b, *ns) {
                (Some(b), Some(ns)) => Some(b.min(ns)),
                (b, ns) => b.or(ns),
            };
        }
        self.build_ns = self.build_ns.min(p.build_ns);
        self.streams_ns = self.streams_ns.min(p.streams_ns);
        self.setup_ns = self.setup_ns.min(p.build_ns + p.streams_ns);
    }

    /// References per host second with every job timed at its fastest pass.
    fn ops_per_s(&self, list: &[Job]) -> f64 {
        let (mut refs, mut ns) = (0, 0);
        for (job, b) in list.iter().zip(&self.job_ns) {
            if let Some(b) = b {
                refs += job.refs();
                ns += b;
            }
        }
        refs as f64 * 1e9 / ns.max(1) as f64
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Passes until `budget` has gone by (at least one).
fn passes(list: &[Job], seed: u64, budget: Duration, check: &mut Check) -> Best {
    let end = Instant::now() + budget;
    let mut best = Best::new(list.len());
    loop {
        let p = run_pass(list, seed, false, best.passes as u64);
        check.record(&p);
        best.add(&p);
        if Instant::now() >= end {
            return best;
        }
    }
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(list: &[Job], seed: u64, seconds: f64, check: &mut Check) -> Metrics {
    let best = passes(list, seed, Duration::from_secs_f64(seconds), check);
    println!(
        "passes: {} of {} jobs, {} references each",
        best.passes,
        list.len(),
        list.iter().map(Job::refs).sum::<u64>(),
    );
    vec![
        ("ops_per_s", best.ops_per_s(list), "1/s"),
        ("setup_s", secs(best.setup_ns), "s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// One traced round: the job list, then (for oracle-checked jobs) the same
/// jobs with the oracle off, each with the layer tallies it produced.
struct Round {
    pass: Pass,
    tally: [Tally; LAYERS],
    twin: Option<(Pass, [Tally; LAYERS])>,
}

impl Round {
    /// The layers whose exact counts differ from `other`'s.
    fn unrepeated(&self, other: &Round) -> Vec<&'static str> {
        let differ = |a: &[Tally; LAYERS], b: &[Tally; LAYERS], l: Layer| {
            a[l as usize].counts() != b[l as usize].counts()
        };
        Layer::ALL[1..]
            .iter()
            .filter(|&&l| {
                differ(&self.tally, &other.tally, l)
                    || match (&self.twin, &other.twin) {
                        (Some((_, a)), Some((_, b))) => differ(a, b, l),
                        _ => false,
                    }
            })
            .map(|l| l.name())
            .collect()
    }
}

fn traced_round(list: &[Job], twins: &[Job], seed: u64, n: u64) -> Round {
    let before = trace::snapshot();
    let pass = run_pass(list, seed, true, 2 * n);
    let mid = trace::snapshot();
    let tally = trace::delta(&mid, &before);
    let twin = (!twins.is_empty()).then(|| {
        let p = run_pass(twins, seed, true, 2 * n + 1);
        (p, trace::delta(&trace::snapshot(), &mid))
    });
    Round { pass, tally, twin }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(list: &[Job], seed: u64, seconds: f64, check: &mut Check, out: &str) -> Metrics {
    let half = Duration::from_secs_f64(seconds / 2.0);
    let untraced = passes(list, seed, half, check);
    let timer_ns = trace::timer_overhead_ns();

    let twins: Vec<Job> = list
        .iter()
        .filter(|j| j.checking)
        .map(Job::unchecked)
        .collect();
    let mut twin_check = Check::new(&twins, BTreeMap::new());
    trace::set_enabled(true);
    let end = Instant::now() + half;
    let mut rounds: Vec<Round> = Vec::new();
    let mut unrepeated: Vec<&'static str> = Vec::new();
    loop {
        let r = traced_round(list, &twins, seed, 1 + rounds.len() as u64);
        check.record(&r.pass);
        if let Some((p, _)) = &r.twin {
            twin_check.record(p);
            // The oracle must not change the machine: each twin's counters
            // equal its checked job's.
            for (a, b) in r.pass.outcomes.iter().zip(&p.outcomes) {
                if let (Ok(a), Ok(b)) = (a, b) {
                    if a != b {
                        eprintln!("perfbench: checked and unchecked counters differ");
                        check.failed += 1;
                    }
                }
            }
        }
        if let Some(f) = rounds.first() {
            for layer in f.unrepeated(&r) {
                if !unrepeated.contains(&layer) {
                    unrepeated.push(layer);
                }
            }
        }
        rounds.push(r);
        if Instant::now() >= end {
            break;
        }
    }
    trace::set_enabled(false);
    check.attempted += twin_check.attempted;
    check.failed += twin_check.failed;
    write_spans(out, timer_ns);

    // Counts come from the first round, a fixed amount of work, so they
    // repeat between runs of one seed; timings are summed over every round.
    let first = &rounds[0];
    let (c, t, ops) = (first.pass.total(), &first.tally, first.pass.ops as f64);
    let mut sum = [Tally::default(); LAYERS];
    let mut twin_sum = [Tally::default(); LAYERS];
    let mut all_ops = 0.0;
    for r in &rounds {
        for l in 0..LAYERS {
            sum[l].add(&r.tally[l]);
            if let Some((_, tt)) = &r.twin {
                twin_sum[l].add(&tt[l]);
            }
        }
        all_ops += r.pass.ops as f64;
    }
    let est = |l: Layer| sum[l as usize].estimated_ns(timer_ns);
    let self_ns = sum[Layer::Run as usize].ns as f64
        - est(Layer::Local)
        - est(Layer::Snoop)
        - est(Layer::Next);
    let policy = {
        let mut p = sum[Layer::Local as usize];
        p.add(&sum[Layer::Snoop as usize]);
        p
    };
    let checker = |s: &[Tally; LAYERS], f: fn(&Tally) -> u64| {
        (f(&s[Layer::Run as usize]) + f(&s[Layer::Verify as usize])) as f64
    };
    let (checker_ns, checker_allocs) = match &first.twin {
        Some((_, tt)) => (
            ratio(
                checker(&sum, |x| x.ns) - checker(&twin_sum, |x| x.ns),
                all_ops,
            ),
            ratio(checker(t, |x| x.allocs) - checker(tt, |x| x.allocs), ops),
        ),
        None => (0.0, 0.0),
    };
    let (timed_txns, timed_busy, timed_wall, timed_wait) = first
        .pass
        .outcomes
        .iter()
        .flatten()
        .filter(|c| c.wall_ns > 0)
        .fold((0, 0, 0, 0), |a, c| {
            (
                a.0 + c.txns,
                a.1 + c.busy_ns,
                a.2 + c.wall_ns,
                a.3 + c.wait_ns,
            )
        });
    let mut traced = Best::new(list.len());
    for r in &rounds {
        traced.add(&r.pass);
    }
    println!(
        "traced: {} rounds after {} untraced passes; timer {timer_ns} ns; 1 in {} per-call spans timed",
        rounds.len(),
        untraced.passes,
        trace::SAMPLE_EVERY
    );
    if unrepeated.is_empty() {
        println!("traced counts repeated exactly in every round");
    } else {
        println!(
            "traced counts that varied between rounds: {}",
            unrepeated.join(", ")
        );
    }
    let t_ = |l: Layer| t[l as usize];
    vec![
        (
            "moesi.local_calls_per_op",
            ratio(t_(Layer::Local).calls as f64, ops),
            "count",
        ),
        (
            "moesi.snoop_calls_per_op",
            ratio(t_(Layer::Snoop).calls as f64, ops),
            "count",
        ),
        (
            "moesi.ns_per_call",
            ratio(policy.estimated_ns(timer_ns), policy.calls as f64),
            "host_ns",
        ),
        ("mpsim.self_ns_per_op", ratio(self_ns, all_ops), "host_ns"),
        (
            "mpsim.allocs_per_op",
            ratio(t_(Layer::Run).allocs as f64, ops),
            "count",
        ),
        (
            "mpsim.alloc_bytes_per_op",
            ratio(t_(Layer::Run).bytes as f64, ops),
            "B",
        ),
        ("futurebus.txns_per_op", ratio(c.txns as f64, ops), "count"),
        (
            "futurebus.host_ns_per_txn",
            ratio(self_ns, c.txns as f64 * rounds.len() as f64),
            "host_ns",
        ),
        (
            "futurebus.aborts_per_txn",
            ratio(c.aborts as f64, c.txns as f64),
            "count",
        ),
        (
            "futurebus.util",
            ratio(timed_busy as f64, timed_wall as f64),
            "sim_ratio",
        ),
        (
            "futurebus.wait_ns_per_txn",
            ratio(timed_wait as f64, timed_txns as f64),
            "sim_ns",
        ),
        (
            "cache.hit_ratio",
            ratio(c.hits as f64, c.refs as f64),
            "ratio",
        ),
        (
            "cache.invalidations_per_op",
            ratio(c.invalidations as f64, ops),
            "count",
        ),
        (
            "workload.ns_per_op",
            ratio(est(Layer::Next), sum[Layer::Next as usize].calls as f64),
            "host_ns",
        ),
        (
            "hierarchy.root_txns_per_op",
            ratio(c.root_txns as f64, ops),
            "count",
        ),
        (
            "hierarchy.leaf_txns_per_op",
            ratio(c.leaf_txns as f64, ops),
            "count",
        ),
        (
            "hierarchy.bridge_snoops_per_op",
            ratio(c.snooped as f64, ops),
            "count",
        ),
        (
            "hierarchy.filter_suppress_ratio",
            ratio(c.suppressed as f64, c.snooped as f64),
            "ratio",
        ),
        ("checker.ns_per_op", checker_ns, "host_ns"),
        ("checker.allocs_per_op", checker_allocs, "count"),
        ("setup.build_s", secs(untraced.build_ns), "host_s"),
        ("setup.streams_s", secs(untraced.streams_ns), "host_s"),
        (
            "trace.overhead",
            ratio(untraced.ops_per_s(list), traced.ops_per_s(list)),
            "ratio",
        ),
        (
            "host.available_parallelism",
            available_parallelism() as f64,
            "count",
        ),
    ]
}

/// Writes the recorded spans as one JSON document.
fn write_spans(path: &str, timer_ns: f64) {
    let records = trace::take_records();
    let mut doc = format!(
        "{{\"sample_every\": {}, \"timer_ns\": {timer_ns}, \"spans\": [\n",
        trace::SAMPLE_EVERY
    );
    for (i, r) in records.iter().enumerate() {
        let dur = if r.layer.sampled() {
            r.tally.estimated_ns(timer_ns)
        } else {
            r.tally.ns as f64
        };
        let span = JsonObject::new()
            .number("job", r.job)
            .string("name", r.layer.name())
            .string("parent", r.layer.parent().name())
            .number("start_ns", r.start_ns)
            .number("dur_ns", dur)
            .number("calls", r.tally.calls)
            .number("allocs", r.tally.allocs)
            .number("alloc_bytes", r.tally.bytes)
            .finish();
        doc.push_str(&span);
        doc.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    doc.push_str("]}\n");
    let written = std::path::Path::new(path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, doc));
    match written {
        Ok(()) => println!("spans: {} written to {path}", records.len()),
        Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let list = jobs::workload(&args.workload).expect("workload name checked by parse_args");
    if args.print_digests {
        for job in &list {
            match jobs::run_once(job, args.seed, false) {
                Ok(c) => println!(
                    "{} {} {} {:016x}",
                    args.workload,
                    args.seed,
                    job.name(),
                    c.digest()
                ),
                Err(e) => {
                    eprintln!("perfbench: job {} failed: {e}", job.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut check = Check::new(&list, references(&args.workload, args.seed));
    println!(
        "perfbench: workload {} seed {}; closed loop, 1 thread; host \
         available_parallelism {}; {} reference digests (recorded seeds {} and {})",
        args.workload,
        args.seed,
        available_parallelism(),
        check.reference.len(),
        jobs::DEFAULT_SEED,
        jobs::HELD_OUT_SEED
    );
    let metrics = if args.trace {
        let out = format!(
            "{}/out/spans-{}-seed{}.json",
            env!("CARGO_MANIFEST_DIR"),
            args.workload,
            args.seed
        );
        per_layer(&list, args.seed, args.seconds, &mut check, &out)
    } else {
        end_to_end(&list, args.seed, args.seconds, &mut check)
    };

    let mut m = JsonObject::new();
    for (name, value, unit) in metrics {
        let value = if value.is_finite() { value } else { 0.0 };
        m = m.raw(
            name,
            &JsonObject::new()
                .number("value", value)
                .string("unit", unit)
                .finish(),
        );
    }
    println!(
        "{}",
        JsonObject::new()
            .raw("correct", if check.failed == 0 { "true" } else { "false" })
            .number("attempted", check.attempted)
            .number("failed", check.failed)
            .raw("metrics", &m.finish())
            .finish()
    );
    ExitCode::SUCCESS
}
