//! Gate on the committed best-known synthesized tables.
//!
//! `tests/fixtures/synth/best_tables.txt` is the output of
//! `moesi-sim synth --seed 7` (see the fixture's header for the exact
//! regeneration command). These tests hold the fixture to the claims the
//! synthesis run makes: every table parses as a strict class member,
//! round-trips byte-identically through the serializer, and survives a
//! fault-injection campaign — loaded into the machines by name through
//! `CampaignConfig::tables` — with over a thousand injected faults and
//! zero silent corruption.

use mpsim::{run_campaign, CampaignConfig};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "fixtures",
        "synth",
        name,
    ]
    .iter()
    .collect();
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn best_tables_parse_as_class_members_and_round_trip() {
    let doc = fixture("best_tables.txt");
    let tables = moesi::parse_member_tables(&doc).expect("fixture parses as class members");
    assert_eq!(tables.len(), 6, "one winner per workload");
    let names: Vec<&str> = tables.iter().map(|t| t.name()).collect();
    for workload in bench::WORKLOADS {
        assert!(
            names.contains(&format!("synth-{workload}").as_str()),
            "no winner for {workload} in {names:?}"
        );
    }
    for t in &tables {
        assert!(t.is_class_member(), "{} drifted out of class", t.name());
        let rendered = t.render();
        let back = moesi::parse_table(&rendered).expect("re-parses");
        assert_eq!(back.render(), rendered, "{} render unstable", t.name());
    }
}

#[test]
fn best_tables_json_report_matches_the_text_fixture() {
    let json = fixture("best_tables.json");
    let doc = fixture("best_tables.txt");
    let tables = moesi::parse_member_tables(&doc).expect("fixture parses");
    for t in &tables {
        assert!(
            json.contains(&format!("\"winner\": \"{}\"", t.name())),
            "JSON report missing {}",
            t.name()
        );
    }
    assert!(
        json.contains("\"faults_silent\": 0"),
        "fixture run saw silent corruption"
    );
    assert!(
        json.contains("\"seed\": 7"),
        "fixture not generated with --seed 7"
    );
}

#[test]
fn best_tables_survive_a_thousand_fault_campaign() {
    let doc = fixture("best_tables.txt");
    let tables = moesi::parse_member_tables(&doc).expect("fixture parses");
    let report = run_campaign(&CampaignConfig {
        protocols: tables.iter().map(|t| t.name().to_string()).collect(),
        tables,
        ..CampaignConfig::default()
    })
    .expect("campaign runs");
    let tally = report.tally();
    assert!(
        tally.injected() >= 1000,
        "only {} faults injected; the gate needs >= 1000",
        tally.injected()
    );
    assert_eq!(
        tally.silent(),
        0,
        "synthesized tables corrupted silently under faults"
    );
}
