//! Corrupt bytes in any on-disk artifact come back as an error, never a
//! panic. One real document of each kind the workspace writes is cut at
//! every byte (every strict prefix must be rejected) and hit with one
//! seeded single-bit flip per byte offset (every decode must return, `Ok`
//! or `Err`). Each document goes through the decoder its loader uses, and
//! each is a few KiB, so the whole test stays around a second in a debug
//! build.

use relaxfault_farm::{FarmLedger, JobRole, JobStatus, LedgerEntry};
use relaxfault_relsim::fleet::{FleetCheckpoint, FleetConfig, FleetSim};
use relaxfault_relsim::repro::ReproCase;
use relaxfault_relsim::scenario::{Mechanism, Scenario};
use relaxfault_util::crashdump::CrashDump;
use relaxfault_util::history::{self, Ledger};
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use relaxfault_util::persist::Persist;
use relaxfault_util::rng::{Rng, Rng64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

struct Doc {
    kind: &'static str,
    text: String,
    decode: fn(&str) -> Result<(), String>,
}

fn parse<T: Persist>(text: &str) -> Result<(), String> {
    T::parse_str(text).map(drop)
}

/// `relcheck replay` decodes a dump, then its embedded checkpoint.
fn parse_crash_dump(text: &str) -> Result<(), String> {
    let dump = CrashDump::parse_str(text)?;
    if let Some(ckpt) = &dump.checkpoint {
        FleetCheckpoint::from_json(ckpt)?;
    }
    Ok(())
}

fn parse_ledger(text: &str) -> Result<(), String> {
    Ledger::parse_entries(text).map(drop)
}

/// What `obs_report ingest` does with a `results/obs/<run>.json` file.
fn parse_snapshot(text: &str) -> Result<(), String> {
    let doc = Value::parse(text).map_err(|e| e.to_string())?;
    history::entry_from_snapshot(&doc).map(drop)
}

/// One document of every kind, built once per test binary.
fn documents() -> &'static [Doc] {
    static DOCS: OnceLock<Vec<Doc>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let arms = vec![
            Scenario::isca16_baseline(),
            Scenario::isca16_baseline().with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
        ];
        // Metrics on while the fleet runs, so the snapshot (and the dump
        // that embeds it) carries real counters and span histograms.
        obs::set_metrics_enabled(true);
        let mut cfg = FleetConfig::quick(2_000, 4, 2016);
        cfg.shards = 2;
        let mut fleet = FleetSim::new(arms.clone(), cfg);
        fleet.run_to_end().expect("fleet runs");
        obs::record_bench("corruption.probe", 1234.5, 10, &[1200.0, 1234.5, 1300.0]);
        let snapshot = obs::snapshot();
        obs::set_metrics_enabled(false);
        let ckpt = fleet.checkpoint();

        let repro = ReproCase {
            case: "engine_check".into(),
            reason: "RF_CHECK: occupancy disagrees with enumeration".into(),
            seed: 2016,
            trial: 17,
            group: 0,
            epoch: Some(3),
            scenarios: arms,
            digest: Some(u64::MAX - 5),
            prop_choices: vec![0, 1 << 60, 7],
        };
        let dump = CrashDump {
            run: "crash_small".into(),
            reason: "injected crash inside epoch 3".into(),
            wall_clock_ms: 1_700_000_000_000,
            snapshot: snapshot.clone(),
            checkpoint: Some(ckpt.to_json()),
        };
        let ledger = FarmLedger {
            spec_digest: 0x1234_5678_9ABC_DEF0,
            jobs: ["fig08_hashing", "fig10_coverage", "table3_config"]
                .iter()
                .enumerate()
                .map(|(i, id)| LedgerEntry {
                    id: id.to_string(),
                    digest: i as u64 * 0x1111,
                    role: JobRole::Job,
                    status: [JobStatus::Ok, JobStatus::Failed, JobStatus::Pending][i],
                    reason: (i == 1).then(|| "exit status 101: RF_CHECK failure".into()),
                    repro: (i == 1).then(|| "farm/jobs/fig10_coverage.repro.json".into()),
                })
                .collect(),
        };
        let entry = history::entry_from_snapshot(&snapshot).expect("snapshot distils");

        vec![
            Doc {
                kind: "relcheck_repro",
                text: repro.to_json().to_pretty(),
                decode: parse::<ReproCase>,
            },
            Doc {
                kind: "fleet_checkpoint",
                text: ckpt.to_json().to_pretty(),
                decode: parse::<FleetCheckpoint>,
            },
            Doc {
                kind: "crash_dump",
                text: Persist::to_json(&dump).to_pretty(),
                decode: parse_crash_dump,
            },
            Doc {
                kind: "farm_state",
                text: ledger.to_json().to_pretty(),
                decode: parse::<FarmLedger>,
            },
            Doc {
                kind: "history_entry",
                text: entry.to_line(),
                decode: parse_ledger,
            },
            Doc {
                kind: "obs_snapshot",
                text: snapshot.to_pretty(),
                decode: parse_snapshot,
            },
        ]
    })
}

/// Runs `decode` under `catch_unwind`, reporting a panic as `None`.
fn guarded(decode: fn(&str) -> Result<(), String>, text: &str) -> Option<Result<(), String>> {
    catch_unwind(AssertUnwindSafe(|| decode(text))).ok()
}

#[test]
fn intact_documents_decode() {
    for doc in documents() {
        // ASCII, so every byte offset the prefix test cuts at is a char
        // boundary.
        assert!(doc.text.is_ascii(), "{}: non-ASCII document", doc.kind);
        if let Err(e) = (doc.decode)(&doc.text) {
            panic!("{}: intact document rejected: {e}", doc.kind);
        }
    }
}

#[test]
fn every_strict_prefix_is_rejected() {
    for doc in documents() {
        // Whitespace after a JSON document is insignificant. A ledger's
        // final newline is not (it marks a complete append), and an empty
        // ledger file is the valid state before the first append.
        let (first, len) = if doc.kind == "history_entry" {
            (1, doc.text.len())
        } else {
            (0, doc.text.trim_end().len())
        };
        for end in first..len {
            match guarded(doc.decode, &doc.text[..end]) {
                Some(Err(_)) => {}
                Some(Ok(())) => panic!("{}: prefix of {end} bytes accepted", doc.kind),
                None => panic!("{}: prefix of {end} bytes panicked", doc.kind),
            }
        }
    }
}

#[test]
fn single_bit_flips_never_panic() {
    let mut rng = Rng64::seed_from_u64(0x5eed_f11b);
    for doc in documents() {
        let bytes = doc.text.as_bytes();
        let mut panicked = Vec::new();
        for at in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1 << rng.gen_range(0..8u32);
            // A flip into invalid UTF-8 fails `read_to_string` in every
            // loader; decode the lossy text so the parser still sees it.
            let text = String::from_utf8_lossy(&flipped);
            if guarded(doc.decode, &text).is_none() {
                panicked.push(at);
            }
        }
        assert!(
            panicked.is_empty(),
            "{}: flips at offsets {panicked:?} panicked",
            doc.kind
        );
    }
}

#[test]
fn hostile_json_is_an_error_for_every_kind() {
    let unpaired_surrogate = r#"{"reason": "\ud800\u0041"}"#;
    let deep_nesting = "[".repeat(100_000);
    for text in [unpaired_surrogate, deep_nesting.as_str()] {
        assert!(Value::parse(text).is_err());
        for doc in documents() {
            match guarded(doc.decode, text) {
                Some(Err(_)) => {}
                Some(Ok(())) => panic!("{}: hostile input accepted", doc.kind),
                None => panic!("{}: hostile input panicked", doc.kind),
            }
        }
    }
}

/// The value at `path` (object keys, or decimal indices into arrays).
fn value_at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(v, |at, key| match at {
        Value::Object(pairs) => {
            let slot = pairs.iter_mut().find(|(k, _)| k == key);
            &mut slot.unwrap_or_else(|| panic!("no key {key}")).1
        }
        Value::Array(items) => &mut items[key.parse::<usize>().expect("array index")],
        _ => panic!("{key}: path runs into a scalar"),
    })
}

/// Values that parse as JSON and survive the bit-flip test, yet no run
/// could be built from: a way limit or bank group the planners assert
/// against, and u32 counts that would wrap. Each must fail to decode —
/// before a replay or resume gets to a planner constructor's panic.
#[test]
fn impossible_scenarios_and_wrapped_counts_are_rejected() {
    let doc = |kind: &str| {
        documents()
            .iter()
            .find(|d| d.kind == kind)
            .expect("document of that kind")
    };
    let decode = |d: &Doc, path: &[&str], new: Value| {
        let mut v = Value::parse(&d.text).expect("intact document parses");
        *value_at(&mut v, path) = new;
        guarded(d.decode, &v.to_pretty()).unwrap_or_else(|| panic!("{}: {path:?} panicked", d.kind))
    };
    let mechanism = |text: &str| Value::parse(text).expect("mechanism JSON");
    let bad_mechanisms = [
        r#"{"kind": "relaxfault", "max_ways": 0}"#,
        r#"{"kind": "relaxfault", "max_ways": 17}"#,
        r#"{"kind": "relaxfault", "max_ways": 2.5}"#,
        r#"{"kind": "freefault", "max_ways": -1}"#,
        r#"{"kind": "ppr_custom", "banks_per_group": 0, "spares_per_group": 1}"#,
        r#"{"kind": "ppr_custom", "banks_per_group": 9, "spares_per_group": 1}"#,
    ];
    let good_mechanisms = [
        r#"{"kind": "freefault", "max_ways": 16}"#,
        r#"{"kind": "ppr_custom", "banks_per_group": 8, "spares_per_group": 1}"#,
    ];
    let carriers: [(&str, &[&str]); 3] = [
        ("relcheck_repro", &["scenarios", "1", "mechanism"]),
        ("fleet_checkpoint", &["scenarios", "1", "mechanism"]),
        ("crash_dump", &["checkpoint", "scenarios", "1", "mechanism"]),
    ];
    for (kind, path) in carriers {
        for bad in bad_mechanisms {
            let got = decode(doc(kind), path, mechanism(bad));
            assert!(got.is_err(), "{kind}: decoded {bad}");
        }
        for good in good_mechanisms {
            let got = decode(doc(kind), path, mechanism(good));
            assert!(got.is_ok(), "{kind}: rejected {good}: {got:?}");
        }
    }

    // A u32 count 2^32 above its true value would wrap back onto it and
    // pass every consistency check.
    let ckpt = doc("fleet_checkpoint");
    let wrapped = |path: &[&str]| {
        let mut v = Value::parse(&ckpt.text).expect("intact checkpoint parses");
        let count = value_at(&mut v, path).as_f64().expect("count") as u64;
        Value::from(count + (1u64 << 32))
    };
    for path in [
        &["epochs"][..],
        &["shards"],
        &["completed_epochs"],
        &["shard_metrics", "0", "1", "max_ways_seen"],
    ] {
        let err = decode(ckpt, path, wrapped(path)).expect_err("wrapped count decoded");
        let field = path.last().expect("non-empty path");
        assert!(err.contains(field), "error does not name {field}: {err}");
    }
}
