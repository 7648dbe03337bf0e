//! `obs_validate`'s kind table: each `kind` decodes through its type's
//! `Persist` parser, one kind must not mix schema versions, and an
//! unknown kind fails.

use relaxfault_relsim::repro::ReproCase;
use relaxfault_relsim::scenario::Scenario;
use relaxfault_util::json::Value;
use std::path::Path;
use std::process::Command;

fn validate(dir: &Path) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_obs_validate"))
        .arg(dir)
        .output()
        .expect("obs_validate runs")
        .status
        .code()
}

#[test]
fn kind_table_checks_every_artifact() {
    let dir = std::env::temp_dir().join(format!("rf_validate_kinds_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let write = |name: &str, doc: &Value| {
        std::fs::write(dir.join(name), doc.to_pretty()).expect("write artifact");
    };

    let case = ReproCase {
        case: "engine_check".into(),
        reason: "forced failure".into(),
        seed: 2016,
        trial: 0,
        group: 0,
        epoch: None,
        scenarios: vec![Scenario::isca16_baseline()],
        digest: None,
        prop_choices: Vec::new(),
    };
    write("case_v2.json", &case.to_json());
    assert_eq!(validate(&dir), Some(0));

    // A v1 case (before `epoch`) still decodes, but not next to a v2 one.
    let Value::Object(mut v1) = case.to_json() else {
        unreachable!("cases serialize to objects")
    };
    v1.retain(|(k, _)| k != "epoch");
    v1.iter_mut()
        .filter(|(k, _)| k == "schema_version")
        .for_each(|(_, v)| *v = Value::from(1u64));
    write("case_v1.json", &Value::Object(v1));
    assert_eq!(validate(&dir), Some(1), "mixed repro versions");
    std::fs::remove_file(dir.join("case_v2.json")).expect("remove");
    assert_eq!(validate(&dir), Some(0));

    write(
        "mystery.json",
        &Value::object([
            ("kind", Value::from("mystery")),
            ("schema_version", Value::from(1u64)),
        ]),
    );
    assert_eq!(validate(&dir), Some(1), "unknown kind");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
