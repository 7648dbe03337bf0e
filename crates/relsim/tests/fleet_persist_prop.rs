//! Property tests for the fleet-checkpoint persistence layer: any
//! well-formed checkpoint serializes to text that parses back and
//! re-serializes byte-identically, and corrupted or truncated snapshot
//! files are rejected with a clear error instead of a panic or a silently
//! wrong resume.

use relaxfault_relsim::fleet::{FleetCheckpoint, FleetMetrics};
use relaxfault_relsim::scenario::{Mechanism, Scenario};
use relaxfault_util::persist::Persist;
use relaxfault_util::prop::{self, Source};
use relaxfault_util::{prop_assert, prop_assert_eq};

fn arb_metrics(src: &mut Source) -> FleetMetrics {
    // Counter magnitudes up to the JSON layer's exact-integer ceiling.
    let mut m = FleetMetrics {
        faulty_nodes: src.u64(0, 1 << 52),
        fully_repaired_nodes: src.u64(0, 1 << 52),
        repair_bytes_total: src.u64(0, 1 << 52),
        dues: src.u64(0, 1 << 52),
        transient_dues: src.u64(0, 1 << 52),
        sdcs: src.u64(0, 1 << 52),
        replacements: src.u64(0, 1 << 52),
        unrepaired_faults: src.u64(0, 1 << 52),
        permanent_faults: src.u64(0, 1 << 52),
        max_ways_seen: src.u32(0, 64),
        unrepaired_by_mode: [0; 6],
    };
    for slot in &mut m.unrepaired_by_mode {
        *slot = src.u64(0, 1 << 52);
    }
    m
}

fn arb_checkpoint(src: &mut Source) -> FleetCheckpoint {
    let shards = src.u32(1, 6);
    let mechanisms = [
        Mechanism::None,
        Mechanism::RelaxFault { max_ways: 4 },
        Mechanism::Ppr,
    ];
    let arms: Vec<Scenario> = (0..src.usize(1, 3))
        .map(|_| {
            Scenario::isca16_baseline()
                .with_mechanism(mechanisms[src.usize(0, mechanisms.len() - 1)])
        })
        .collect();
    let epochs = src.u32(1, 40);
    FleetCheckpoint {
        // Full-domain hex fields, including values beyond 2^53 that would
        // silently round if stored as JSON numbers.
        seed: src.u64(0, u64::MAX),
        nodes: src.u64(1, 1 << 40),
        epochs,
        shards,
        completed_epochs: src.u32(0, epochs),
        config_digest: src.u64(0, u64::MAX),
        dirty_evals: src.u64(0, 1 << 52),
        shard_digests: (0..shards).map(|_| src.u64(0, u64::MAX)).collect(),
        shard_metrics: (0..shards)
            .map(|_| arms.iter().map(|_| arb_metrics(src)).collect())
            .collect(),
        scenarios: arms,
    }
}

#[test]
fn serialize_parse_serialize_is_byte_identical() {
    prop::check(64, |src| {
        let ckpt = arb_checkpoint(src);
        let text = ckpt.to_json().to_pretty();
        let parsed =
            FleetCheckpoint::parse_str(&text).map_err(relaxfault_util::prop::Failed::Assertion)?;
        prop_assert_eq!(parsed, ckpt, "value round trip");
        let text2 = parsed.to_json().to_pretty();
        prop_assert_eq!(text2, text, "byte-identical re-serialization");
        Ok(())
    });
}

#[test]
fn truncated_checkpoints_are_rejected_not_panicked() {
    prop::check(64, |src| {
        let ckpt = arb_checkpoint(src);
        let text = ckpt.to_json().to_pretty();
        let trimmed = text.trim_end();
        // Any strict prefix of the document is unparseable: pretty JSON
        // carries no redundant tail to survive truncation.
        let cut = src.usize(0, trimmed.len() - 1);
        let truncated: &str = match trimmed.get(..cut) {
            Some(t) => t,
            None => return Err(relaxfault_util::prop::Failed::Assumption), // UTF-8 boundary
        };
        prop_assert!(
            FleetCheckpoint::parse_str(truncated).is_err(),
            "truncation at byte {} of {} must not parse",
            cut,
            trimmed.len()
        );
        Ok(())
    });
}

#[test]
fn corrupted_checkpoints_are_rejected_with_context() {
    prop::check(48, |src| {
        let ckpt = arb_checkpoint(src);
        let keys = [
            "kind",
            "schema_version",
            "seed",
            "nodes",
            "shard_digests",
            "shard_metrics",
            "scenarios",
            "completed_epochs",
        ];
        let key = keys[src.usize(0, keys.len() - 1)];
        let mut pairs = match ckpt.to_json() {
            relaxfault_util::json::Value::Object(pairs) => pairs,
            _ => unreachable!("checkpoints serialize to objects"),
        };
        pairs.retain(|(k, _)| k != key);
        let err = FleetCheckpoint::from_json(&relaxfault_util::json::Value::Object(pairs));
        prop_assert!(err.is_err(), "dropping `{}` must be rejected", key);
        Ok(())
    });
}

#[test]
fn structurally_inconsistent_checkpoints_are_rejected() {
    prop::check(48, |src| {
        let mut ckpt = arb_checkpoint(src);
        match src.usize(0, 4) {
            0 => ckpt.shard_digests.push(src.u64(0, u64::MAX)),
            1 => {
                ckpt.shard_metrics.pop();
            }
            2 => ckpt.completed_epochs = ckpt.epochs + 1,
            3 => {
                // An arm-count mismatch inside one shard's metrics.
                ckpt.shard_metrics[0].push(FleetMetrics::default());
            }
            _ => {
                // Consistent, but with no arm to resume.
                ckpt.scenarios.clear();
                ckpt.shard_metrics.iter_mut().for_each(Vec::clear);
            }
        }
        let text = ckpt.to_json().to_pretty();
        prop_assert!(
            FleetCheckpoint::parse_str(&text).is_err(),
            "inconsistent checkpoint must be rejected"
        );
        Ok(())
    });
}
