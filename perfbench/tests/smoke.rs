//! Smoke test of the benchmark itself: every workload at tiny scale, both
//! untraced and traced, must pass its correctness checks and report every
//! metric `BENCHMARK.json` names, finite and with the unit it lists.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::data::ScratchDir;
use perfbench::{run, RunConfig, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The `name` → `unit` entries of one top-level array of
/// `BENCHMARK.json` (workloads have no unit: "").
fn entries_in(section: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |entry: &str, key: &str| -> String {
        entry
            .split(&format!("\"{key}\":"))
            .nth(1)
            .map(|v| {
                v.trim_start()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .unwrap_or_default()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    let workloads: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    let listed: BTreeSet<String> = entries_in("workloads").into_keys().collect();
    assert_eq!(workloads, listed);
    for w in Workload::ALL {
        for trace in [false, true] {
            let cfg = RunConfig {
                workload: w,
                seed: 7,
                seconds: 0.3,
                trace,
                tiny: true,
            };
            let out = run(&cfg).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
            let reported: BTreeMap<String, String> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(reported, entries_in(section), "{} trace={trace}", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
                assert!(!m.unit.is_empty(), "{} {} has no unit", w.name(), m.name);
            }
            assert!(
                out.attempted >= 1,
                "{} trace={trace} ran no scans",
                w.name()
            );
            assert_eq!(out.failed, 0, "{} trace={trace}", w.name());
            if trace {
                assert_eq!(out.metric("bufman.pinned_frames_after"), Some(0.0));
                assert_eq!(out.metric("server.admission_shed"), Some(0.0));
            } else {
                assert!(out.metric("scans_per_s").unwrap() > 0.0);
                assert!(out.metric("setup_s").unwrap() > 0.0);
            }
            let line = out.result_json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn scratch_dirs_are_unique_and_removed_on_drop() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("scratch-unique");
    let a = ScratchDir::new(&root, "t").unwrap();
    let b = ScratchDir::new(&root, "t").unwrap();
    assert_ne!(a.path(), b.path());
    std::fs::write(a.path().join("f"), b"x").unwrap();
    let pa = a.path().to_path_buf();
    drop(a);
    assert!(!pa.exists());
    assert!(b.path().exists(), "dropping one leaves the other");
}
