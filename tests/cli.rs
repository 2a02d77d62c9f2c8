//! The `moesi-sim` binary at its command line: what a shell pipeline sees.

use std::process::{Command, Stdio};

fn moesi_sim(args: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_moesi-sim"));
    cmd.args(args.split_whitespace());
    cmd
}

/// Runs `args` with a stdout whose reader is gone before the process starts,
/// as in `moesi-sim ... | head` once `head` has exited.
fn into_a_closed_pipe(args: &str) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = moesi_sim(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("moesi-sim runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_closed_stdout_ends_every_report_quietly() {
    // The reader is gone before the report is written. That is the reader's
    // choice, not an error.
    for args in [
        "verify --matrix",
        "faults --hierarchy --seed 7",
        "--census --trace 50",
    ] {
        let (code, stderr) = into_a_closed_pipe(args);
        assert_eq!(code, Some(0), "{args}: {stderr}");
        assert!(stderr.is_empty(), "{args}: {stderr}");
    }
}

#[test]
fn a_closed_stdout_still_fails_a_failing_run() {
    // The write-once x owner pair has a counterexample: the report is lost,
    // the verdict is not.
    let (code, stderr) = into_a_closed_pipe("verify --protocol moesi,write-once");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
}

#[test]
fn a_closed_stdout_still_writes_the_report_files() {
    let dir = std::env::temp_dir();
    let json = dir.join(format!("moesi_sim_cli_closed_{}.json", std::process::id()));
    let trace = dir.join(format!(
        "moesi_sim_cli_closed_{}.trace.json",
        std::process::id()
    ));
    for (flags, file) in [
        ("faults --hierarchy --seed 7 --json --out", &json),
        ("faults --seed 7 --steps 200 --trace-out", &trace),
    ] {
        let _ = std::fs::remove_file(file);
        let args = format!("{flags} {}", file.display());
        let (code, stderr) = into_a_closed_pipe(&args);
        assert_eq!(code, Some(0), "{args}: {stderr}");
        let text = std::fs::read_to_string(file).expect("the file is written");
        assert!(text.starts_with('{'), "{args}: {text}");
        std::fs::remove_file(file).expect("removable");
    }
}

#[test]
fn clusters_report_a_census_and_the_root_bus_trace() {
    let out = moesi_sim("--clusters 2x2 --steps 50 --seed 7 --census --trace 4")
        .output()
        .expect("moesi-sim runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let census = text
        .split_once("MOESI state census:\n")
        .expect("a census")
        .1;
    let names: Vec<&str> = census
        .lines()
        .take(4)
        .map(|line| line.split_whitespace().next().expect("a name"))
        .collect();
    assert_eq!(
        names,
        [
            "cluster0/cpu0:MOESI",
            "cluster0/cpu1:MOESI",
            "cluster1/cpu0:MOESI",
            "cluster1/cpu1:MOESI"
        ]
    );
    let trace = text
        .split_once("last 4 bus transactions:\n")
        .expect("a trace")
        .1;
    assert_eq!(trace.lines().count(), 4, "{text}");
}
