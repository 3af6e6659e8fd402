//! Engine-wide metrics registry: counters, gauges, and fixed-bucket
//! log2 histograms, exported as Prometheus-style text exposition or JSONL.
//!
//! Two scopes exist:
//!
//! * **process-cumulative** — the [`global`] registry, a process-wide
//!   singleton accumulating across queries (queries executed, rows
//!   produced, errors by variant, governor outcomes, memory high-water
//!   marks, Q-error distribution);
//! * **per-query** — a fresh [`Registry`] the query lifecycle fills once,
//!   when the query finishes, from the same record, profile and Q-errors
//!   it writes into the global registry.
//!
//! Everything recorded here is *commutative* (counter adds, gauge maxima,
//! histogram observations), so a per-query registry is byte-identical
//! from run to run of the same query. Wall-clock durations, and the slow
//! count derived from them, therefore never enter the per-query scope.
//!
//! The registry is zero-dependency: a `Mutex<BTreeMap>` keyed by
//! `(name, labels)`. The BTreeMap ordering is what makes the exposition
//! output deterministic without a sort at render time.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::json;

/// Upper bounds of the fixed log2 histogram buckets: `le = 2^i` for
/// `i in 0..15`, plus a final `+Inf` bucket. An observation of `v` lands
/// in the first bucket with `v <= le`.
pub const HIST_LE: [u64; 15] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
];

/// Total bucket count including `+Inf`.
pub const HIST_BUCKETS: usize = HIST_LE.len() + 1;

/// The `le` label of bucket `i`.
fn le_label(i: usize) -> String {
    HIST_LE
        .get(i)
        .map_or_else(|| "+Inf".to_string(), u64::to_string)
}

fn bucket_for(v: u64) -> usize {
    HIST_LE
        .iter()
        .position(|&le| v <= le)
        .unwrap_or(HIST_LE.len())
}

/// A metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Key {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Key {
            name: name.to_string(),
            labels,
        }
    }
}

/// One recorded metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    Counter(u64),
    Gauge(u64),
    Hist {
        count: u64,
        sum: u64,
        buckets: [u64; HIST_BUCKETS],
    },
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Hist { .. } => "histogram",
        }
    }
}

/// A thread-safe metrics registry. All mutation goes through one poisoned-
/// tolerant mutex; the hot paths here are per-query events (not per-row),
/// so contention is negligible.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<Key, Metric>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<Key, Metric>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `delta` to a counter (creating it at zero).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let mut map = self.lock();
        match map
            .entry(Key::new(name, labels))
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(v) => *v += delta,
            _ => debug_assert!(false, "metric {name} is not a counter"),
        }
    }

    /// Set a gauge to `value`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let mut map = self.lock();
        map.insert(Key::new(name, labels), Metric::Gauge(value));
    }

    /// Raise a gauge to `value` if it is below it (high-water semantics;
    /// commutative, so safe to call from concurrent queries).
    pub fn gauge_max(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let mut map = self.lock();
        match map
            .entry(Key::new(name, labels))
            .or_insert(Metric::Gauge(0))
        {
            Metric::Gauge(v) => *v = (*v).max(value),
            _ => debug_assert!(false, "metric {name} is not a gauge"),
        }
    }

    /// Record one observation into a log2 histogram.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let mut map = self.lock();
        match map.entry(Key::new(name, labels)).or_insert(Metric::Hist {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }) {
            Metric::Hist {
                count,
                sum,
                buckets,
            } => {
                *count += 1;
                *sum += value;
                buckets[bucket_for(value)] += 1;
            }
            _ => debug_assert!(false, "metric {name} is not a histogram"),
        }
    }

    /// Copy the current contents out for rendering.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            entries: self
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// The process-cumulative registry.
pub fn global() -> &'static Registry {
    // Process-wide by design: its counters accumulate across every
    // database in the process, and callers outside any query (benchmark
    // harnesses, the CLI's `:metrics`) read them.
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// An immutable copy of a registry's contents, ready to render.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    pub entries: Vec<(Key, Metric)>,
}

/// `{k="v",…}`, or nothing without labels. Prometheus label values
/// escape `\`, `"` and newlines; the JSON escaper covers those (it also
/// quotes the value, which matches the exposition syntax).
fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    let all = labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    for (i, (k, v)) in all.chain(extra).enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        out.push_str(k);
        out.push('=');
        json::write_string(out, v);
    }
    if !labels.is_empty() || extra.is_some() {
        out.push('}');
    }
}

impl Snapshot {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a metric by name and exact label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        let key = Key::new(name, labels);
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, m)| m)
    }

    /// Sum a counter across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, m)| match m {
                Metric::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Prometheus-style text exposition: a `# TYPE` line per metric name,
    /// then one sample line per label set (histograms expand to cumulative
    /// `_bucket{le=...}` samples plus `_sum` and `_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (key, metric) in &self.entries {
            if last_name != Some(key.name.as_str()) {
                out.push_str(&format!("# TYPE {} {}\n", key.name, metric.type_name()));
                last_name = Some(key.name.as_str());
            }
            match metric {
                Metric::Counter(v) | Metric::Gauge(v) => {
                    out.push_str(&key.name);
                    write_labels(&mut out, &key.labels, None);
                    out.push_str(&format!(" {v}\n"));
                }
                Metric::Hist {
                    count,
                    sum,
                    buckets,
                } => {
                    let mut cum = 0u64;
                    for (i, b) in buckets.iter().enumerate() {
                        cum += b;
                        out.push_str(&format!("{}_bucket", key.name));
                        write_labels(&mut out, &key.labels, Some(("le", &le_label(i))));
                        out.push_str(&format!(" {cum}\n"));
                    }
                    out.push_str(&format!("{}_sum", key.name));
                    write_labels(&mut out, &key.labels, None);
                    out.push_str(&format!(" {sum}\n"));
                    out.push_str(&format!("{}_count", key.name));
                    write_labels(&mut out, &key.labels, None);
                    out.push_str(&format!(" {count}\n"));
                }
            }
        }
        out
    }

    /// JSONL exposition: one JSON object per metric, in registry order.
    ///
    /// ```json
    /// {"metric": "nra_queries_total", "type": "counter",
    ///  "labels": {"outcome": "ok"}, "value": 3}
    /// {"metric": "nra_qerror_x100", "type": "histogram",
    ///  "labels": {}, "count": 9, "sum": 1234,
    ///  "buckets": {"1": 0, "2": 1, ..., "+Inf": 0}}
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (key, metric) in &self.entries {
            out.push_str("{\"metric\": ");
            json::write_string(&mut out, &key.name);
            out.push_str(&format!(", \"type\": \"{}\"", metric.type_name()));
            out.push_str(", \"labels\": {");
            for (i, (k, v)) in key.labels.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json::write_string(&mut out, k);
                out.push_str(": ");
                json::write_string(&mut out, v);
            }
            out.push('}');
            match metric {
                Metric::Counter(v) | Metric::Gauge(v) => {
                    out.push_str(&format!(", \"value\": {v}"));
                }
                Metric::Hist {
                    count,
                    sum,
                    buckets,
                } => {
                    out.push_str(&format!(
                        ", \"count\": {count}, \"sum\": {sum}, \"buckets\": {{"
                    ));
                    for (i, b) in buckets.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!("\"{}\": {b}", le_label(i)));
                    }
                    out.push('}');
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(1), 0);
        assert_eq!(bucket_for(2), 1);
        assert_eq!(bucket_for(3), 2);
        assert_eq!(bucket_for(16384), 14);
        assert_eq!(bucket_for(16385), 15);
        assert_eq!(bucket_for(u64::MAX), 15);
    }

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let r = Registry::new();
        r.counter_add("c_total", &[("k", "a")], 2);
        r.counter_add("c_total", &[("k", "a")], 3);
        r.counter_add("c_total", &[("k", "b")], 1);
        r.gauge_set("g", &[], 7);
        r.gauge_max("g", &[], 3); // stays 7
        r.gauge_max("g", &[], 11);
        r.observe("h", &[], 1);
        r.observe("h", &[], 100);
        let snap = r.snapshot();
        assert_eq!(
            snap.get("c_total", &[("k", "a")]),
            Some(&Metric::Counter(5))
        );
        assert_eq!(snap.counter_total("c_total"), 6);
        assert_eq!(snap.get("g", &[]), Some(&Metric::Gauge(11)));
        match snap.get("h", &[]).unwrap() {
            Metric::Hist {
                count,
                sum,
                buckets,
            } => {
                assert_eq!((*count, *sum), (2, 101));
                assert_eq!(buckets[0], 1);
                assert_eq!(buckets[bucket_for(100)], 1);
            }
            other => panic!("not a histogram: {other:?}"),
        }
    }

    #[test]
    fn label_order_is_normalized() {
        let r = Registry::new();
        r.counter_add("c", &[("b", "2"), ("a", "1")], 1);
        r.counter_add("c", &[("a", "1"), ("b", "2")], 1);
        let snap = r.snapshot();
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(snap.counter_total("c"), 2);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter_add("nra_queries_total", &[("outcome", "ok")], 3);
        r.observe("nra_qerror_x100", &[], 100);
        r.observe("nra_qerror_x100", &[], 300);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE nra_qerror_x100 histogram\n"));
        assert!(text.contains("# TYPE nra_queries_total counter\n"));
        assert!(text.contains("nra_queries_total{outcome=\"ok\"} 3\n"));
        assert!(text.contains("nra_qerror_x100_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("nra_qerror_x100_sum 400\n"));
        assert!(text.contains("nra_qerror_x100_count 2\n"));
        // Cumulative buckets: le="256" already holds both observations.
        assert!(text.contains("nra_qerror_x100_bucket{le=\"512\"} 2\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_add("c", &[("msg", "a\"b\\c\nd")], 1);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("c{msg=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
        let jsonl = r.snapshot().to_jsonl();
        let parsed = json::Json::parse(jsonl.trim()).unwrap();
        assert_eq!(
            parsed.get("labels").unwrap().get("msg").unwrap().as_str(),
            Some("a\"b\\c\nd")
        );
    }

    #[test]
    fn jsonl_parses_back() {
        let r = Registry::new();
        r.counter_add("c_total", &[("k", "v")], 9);
        r.observe("h", &[], 5);
        let jsonl = r.snapshot().to_jsonl();
        for line in jsonl.lines() {
            let parsed = json::Json::parse(line).unwrap();
            assert!(parsed.get("metric").unwrap().as_str().is_some());
        }
        assert_eq!(jsonl.lines().count(), 2);
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let r = Registry::new();
        r.counter_add("z", &[], 1);
        r.counter_add("a", &[("x", "2")], 1);
        r.counter_add("a", &[("x", "1")], 1);
        let names: Vec<String> = r
            .snapshot()
            .entries
            .iter()
            .map(|(k, _)| format!("{}{:?}", k.name, k.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
