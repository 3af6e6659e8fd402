//! The benchmark's metric declarations and its output formats.
//!
//! Every metric the benchmark can print is declared here once — name,
//! unit, direction, and (end-to-end only) the regression bound. The root
//! `BENCHMARK.json` is generated from these tables (`run.sh --manifest`),
//! and a [`Report`] refuses an undeclared name and reports any declared
//! name that was not measured, so the manifest, the results and the code
//! cannot drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use nra::obs::json;

/// The four workloads; names are normative (`ISSUE 12`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "nested_heavy",
        "1 client, threads=1, six nested TPC-H query classes at scale 1.0: operators are >95% of the time, fixed per-query cost <0.1%",
    ),
    (
        "nested_parallel",
        "same six classes with threads=2: same operators through nra_engine::exec partitioning; only a parallelism change should move it alone",
    ),
    (
        "point_floor",
        "2 callers of Session::execute, paper Query Q on 5-row tables, 90% cache-fitting texts / 10% never-seen: the fixed per-query path is most of a request",
    ),
    (
        "ingest_recover",
        "durable inserts (WAL append + fsync each) beside reads, auto-checkpoint, reopen and checkpoint: storage and durable layers as writes beside reads",
    ),
];

/// The six nested query classes, in round-robin order.
pub const CLASSES: [&str; 6] = ["q1", "q2a", "q2b", "q3b", "q3c", "q1agg"];

/// Seconds one driver run measures (`run_seconds` in the manifest and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn decl(name: impl Into<String>, unit: &'static str, better: &'static str) -> Decl {
    Decl {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: what a client of the system observes. Every
/// workload reports every one of them.
pub fn end_to_end() -> Vec<Decl> {
    let e2e = |name: &str, unit, better, bound| Decl {
        bound: Some(bound),
        ..decl(name, unit, better)
    };
    vec![
        e2e("qps", "1/s", "higher", 0.25),
        e2e("p50_ms", "ms", "lower", 0.25),
        e2e("p90_ms", "ms", "lower", 0.25),
        e2e("peak_rss_mb", "MB", "lower", 0.05),
        e2e("setup_s", "s", "lower", 0.25),
    ]
}

/// Per-layer metrics, measured only in traced runs (layer = module name).
pub fn per_layer() -> Vec<Decl> {
    let mut v = Vec::new();
    // nra_core operators, nra_engine::exec and the server's result
    // encoding, per nested query class.
    for c in CLASSES {
        v.push(decl(format!("core.unnest_join_ms.{c}"), "ms", "lower"));
        v.push(decl(format!("core.nest_link_ms.{c}"), "ms", "lower"));
        v.push(decl(
            format!("core.intermediate_rows.{c}"),
            "count",
            "lower",
        ));
        v.push(decl(format!("core.auto_ms.{c}"), "ms", "lower"));
        v.push(decl(format!("core.auto_regret.{c}"), "ratio", "lower"));
        v.push(decl(format!("core.opt_over_orig.{c}"), "ratio", "lower"));
        v.push(decl(format!("exec.speedup_2t.{c}"), "ratio", "higher"));
        v.push(decl(format!("server.encode_ms.{c}"), "ms", "lower"));
        v.push(decl(format!("wire.{c}_p50_ms"), "ms", "lower"));
    }
    v.push(decl("core.nest_ms.q1", "ms", "lower"));
    v.push(decl("core.linking_ms.q1", "ms", "lower"));
    // The fixed per-query path: nra_sql, nra::plancache, planner, session,
    // server.
    for (name, unit, better) in [
        ("sql.normalize_us", "us", "lower"),
        ("sql.parse_us", "us", "lower"),
        ("sql.bind_us", "us", "lower"),
        ("core.plan_us", "us", "lower"),
        ("core.exec_us", "us", "lower"),
        ("session.hit_us", "us", "lower"),
        ("session.miss_us", "us", "lower"),
        ("session.overhead_us", "us", "lower"),
        ("plancache.hit_ratio", "ratio", "higher"),
        ("plancache.evictions", "count", "lower"),
        ("server.wire_us", "us", "lower"),
        ("server.qps_1c", "1/s", "higher"),
        ("server.scaling_2c", "ratio", "higher"),
        ("wire.hit_p50_ms", "ms", "lower"),
        ("wire.miss_p50_ms", "ms", "lower"),
    ] {
        v.push(decl(name, unit, better));
    }
    // nra_storage::wal, nra_storage::disk, nra::durable.
    for (name, unit, better) in [
        ("wal.append_us", "us", "lower"),
        ("wal.fsync_disk_us", "us", "lower"),
        ("wal.bytes_per_record", "B", "lower"),
        ("wal.replay_ms_per_krec", "ms", "lower"),
        ("disk.write_snapshot_ms", "ms", "lower"),
        ("disk.load_snapshot_ms", "ms", "lower"),
        ("disk.snapshot_bytes_per_row", "B", "lower"),
        ("storage.insert_mem_us", "us", "lower"),
        ("durable.insert_us", "us", "lower"),
        ("durable.insert_overhead_us", "us", "lower"),
        ("durable.autockpt_stall_ms", "ms", "lower"),
        ("durable.read_after_write_ms", "ms", "lower"),
        ("durable.replayed_records", "count", "lower"),
        ("durable.bytes_per_user_byte", "ratio", "lower"),
        ("durable.recover_ms", "ms", "lower"),
        ("durable.checkpoint_ms", "ms", "lower"),
    ] {
        v.push(decl(name, unit, better));
    }
    // nra_obs armed cost, process, set-up, and the trace itself.
    for (name, unit, better) in [
        ("obs.profile_overhead.q2b", "ratio", "lower"),
        ("obs.trace_overhead.q2b", "ratio", "lower"),
        ("obs.metrics_overhead.q2b", "ratio", "lower"),
        ("mem.rss_after_load_mb", "MB", "lower"),
        ("mem.bytes_per_row", "B", "lower"),
        ("tpch.gen_s", "s", "lower"),
        ("setup.expected_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "higher"),
        ("trace.self_sum_ratio", "ratio", "lower"),
        ("trace.spans", "count", "higher"),
    ] {
        v.push(decl(name, unit, better));
    }
    v
}

/// The root `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": {}}}{sep}",
            json::escape(why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, d) in e2e.iter().enumerate() {
        let sep = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name,
            d.unit,
            d.better,
            d.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, d) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name, d.unit, d.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Measured {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: u64,
}

/// The metrics of one run, checked against a declaration table.
pub struct Report {
    decls: Vec<Decl>,
    metrics: BTreeMap<String, Measured>,
    /// Workload-specific numbers outside the declared set (per-class
    /// medians of an end-to-end run, sample counts, environment facts);
    /// printed and written to the run's JSON file, never to the result
    /// line.
    details: BTreeMap<String, Measured>,
    /// Facts about the run that are not numbers (e.g. a filesystem type).
    notes: BTreeMap<String, String>,
}

impl Report {
    pub fn new(decls: Vec<Decl>) -> Report {
        Report {
            decls,
            metrics: BTreeMap::new(),
            details: BTreeMap::new(),
            notes: BTreeMap::new(),
        }
    }

    pub fn note(&mut self, key: &str, text: &str) {
        self.notes.insert(key.to_string(), text.to_string());
    }

    /// Record a declared metric. Panics on an undeclared name, a repeat,
    /// or a non-finite value: each is a bug in the benchmark, not a
    /// measurement.
    pub fn put(&mut self, name: &str, value: f64, samples: u64) {
        let decl = self
            .decls
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in report.rs"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        let prev = self.metrics.insert(
            name.to_string(),
            Measured {
                value,
                unit: decl.unit,
                samples,
            },
        );
        assert!(prev.is_none(), "metric `{name}` recorded twice");
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.details.insert(
            name.to_string(),
            Measured {
                value,
                unit,
                samples,
            },
        );
    }

    /// Declared names that were never recorded.
    pub fn missing(&self) -> Vec<&str> {
        self.decls
            .iter()
            .map(|d| d.name.as_str())
            .filter(|n| !self.metrics.contains_key(*n))
            .collect()
    }

    /// Human-readable listing: every metric by name with its unit and
    /// sample count, details after the declared set.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.decls {
            if let Some(m) = self.metrics.get(&d.name) {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>14.4} {:<6} n={}",
                    d.name, m.value, m.unit, m.samples
                );
            }
        }
        for (name, m) in &self.details {
            let _ = writeln!(
                out,
                "  ({:<32}) {:>14.4} {:<6} n={}",
                name, m.value, m.unit, m.samples
            );
        }
        for (key, text) in &self.notes {
            let _ = writeln!(out, "  ({key}: {text})");
        }
        out
    }

    fn metrics_json(map: &BTreeMap<String, Measured>, with_samples: bool) -> String {
        let mut out = String::from("{");
        for (i, (name, m)) in map.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": \"{}\"",
                json::escape(name),
                m.value,
                m.unit
            );
            if with_samples {
                let _ = write!(out, ", \"samples\": {}", m.samples);
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The result line of the driver contract: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
            Self::metrics_json(&self.metrics, false)
        )
    }

    /// The `metrics` (with sample counts), `details` and `notes` members
    /// of the run's record file; the caller adds the run's identification
    /// and the braces.
    pub fn record_json(&self) -> String {
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json::escape(k), json::escape(v)))
            .collect();
        format!(
            "\"metrics\": {}, \"details\": {}, \"notes\": {{{}}}",
            Self::metrics_json(&self.metrics, true),
            Self::metrics_json(&self.details, true),
            notes.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra::obs::json::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declared_names_and_units_fit_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut seen = std::collections::BTreeSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} {}", d.name, d.unit);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate name {}", d.name);
        }
        for d in &e2e {
            let b = d.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
        }
        assert!(e2e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        for (name, why) in WORKLOADS {
            assert!(valid_name(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
    }

    /// `results.json` names ↔ `BENCHMARK.json` names: the committed
    /// manifest is exactly what the declaration tables generate, so every
    /// declared metric is one the reports accept and nothing else is.
    #[test]
    fn committed_manifest_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read ../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
        let parsed = Json::parse(&committed).expect("manifest is valid JSON");
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            parsed
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let declared = |d: Vec<Decl>| d.into_iter().map(|d| d.name).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), declared(end_to_end()));
        assert_eq!(names("per_layer"), declared(per_layer()));
        assert_eq!(
            names("workloads"),
            WORKLOADS
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn report_tracks_missing_and_rejects_undeclared() {
        let mut r = Report::new(end_to_end());
        r.put("qps", 12.5, 100);
        assert_eq!(r.missing(), ["p50_ms", "p90_ms", "peak_rss_mb", "setup_s"]);
        let undeclared = std::panic::catch_unwind(|| {
            let mut r = Report::new(end_to_end());
            r.put("not_a_metric", 1.0, 1);
        });
        assert!(undeclared.is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(end_to_end());
        for d in end_to_end() {
            r.put(&d.name, 1.25, 3);
        }
        r.detail("q1_p50_ms", 80.0, "ms", 23);
        let line = r.result_line(true, 10, 0);
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), end_to_end().len());
        for (_, m) in metrics {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        assert!(!line.contains('\n'));
    }
}
