//! Continuous perf-regression tracking against committed baselines.
//!
//! The `experiments` binary collects per-operator execution profiles of
//! the headline queries in memory (see [`crate::profile`]). This module
//! compares a freshly collected profile against a *committed baseline*,
//! `crates/bench/baselines/BENCH_<name>.json`:
//!
//! * **Exact** comparison on everything deterministic — result/operator
//!   cardinalities (`rows_in`/`rows_out`), `invocations`, `batches`,
//!   hash-build sizes, nest group counts and cardinality histograms,
//!   σ̄ padding, 3VL outcomes, and the simulated I/O page counts. The
//!   benchmark data is generated from a fixed seed, so any drift here is
//!   a behaviour change, not noise.
//! * **Tolerance band** on wall-clock time: a series only fails when both
//!   the baseline and the current total exceed a floor (default 50 ms)
//!   *and* their ratio exceeds a factor (default 10×). Baselines are
//!   recorded on whatever machine ran `--baseline-write`, so the band is
//!   deliberately wide — it catches complexity-class regressions, not
//!   scheduler jitter.
//!
//! `experiments --baseline-check` runs the comparison and exits non-zero
//! with a per-operator delta table on any regression;
//! `experiments --baseline-write` refreshes the committed files.

use std::fmt::Write as _;
use std::path::PathBuf;

use nra_obs::json::Json;

use crate::profile::QueryProfile;

/// The committed baselines directory (`crates/bench/baselines/`).
pub fn baselines_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/baselines"))
}

/// Tolerances for the non-deterministic (timing) fields.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Maximum allowed ratio between current and baseline wall time.
    pub wall_factor: f64,
    /// Wall times below this (ns) are never compared.
    pub wall_floor_ns: u64,
}

impl Default for Tolerance {
    fn default() -> Tolerance {
        Tolerance {
            wall_factor: 10.0,
            wall_floor_ns: 50_000_000,
        }
    }
}

/// One divergence from the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Series label (`native`, `nr-original`, `nr-optimized`).
    pub series: String,
    /// Qualified operator name, `io`, or `(profile)` for structural drift.
    pub op: String,
    /// The counter that diverged.
    pub counter: String,
    pub baseline: String,
    pub current: String,
}

/// Outcome of checking one query's profile against its baseline.
#[derive(Debug, Clone)]
pub struct Report {
    pub query: String,
    pub regressions: Vec<Regression>,
    /// Per-series `(label, baseline total_wall_ns, current total_wall_ns)`,
    /// informational even when within tolerance.
    pub wall: Vec<(String, u64, u64)>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Markdown rendering: a per-operator delta table when the check
    /// failed, a one-liner when it passed.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        if self.passed() {
            let _ = writeln!(out, "- `{}`: ok ({})", self.query, self.wall_summary());
            return out;
        }
        let _ = writeln!(
            out,
            "- `{}`: **{} regression(s)** ({})\n",
            self.query,
            self.regressions.len(),
            self.wall_summary()
        );
        let _ = writeln!(out, "| series | operator | counter | baseline | current |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "| {} | `{}` | {} | {} | {} |",
                r.series, r.op, r.counter, r.baseline, r.current
            );
        }
        out
    }

    fn wall_summary(&self) -> String {
        self.wall
            .iter()
            .map(|(s, base, cur)| {
                format!(
                    "{s}: {:.1}ms→{:.1}ms",
                    *base as f64 / 1e6,
                    *cur as f64 / 1e6
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Check a freshly collected profile against the committed
/// `baselines/BENCH_<name>.json`. Errors (as opposed to regressions) are
/// reserved for unusable inputs: missing/corrupt baseline file, or a
/// baseline recorded at a different scale.
pub fn check_profile(qp: &QueryProfile, tol: &Tolerance) -> Result<Report, String> {
    let path = baselines_dir().join(format!("BENCH_{}.json", qp.name));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "no baseline for {} at {} ({e}); run `experiments --baseline-write` \
             and commit the result",
            qp.name,
            path.display()
        )
    })?;
    let base =
        Json::parse(&text).map_err(|e| format!("corrupt baseline {}: {e}", path.display()))?;
    let cur = Json::parse(&qp.to_json()).expect("own serialization parses");
    diff(&qp.name, &base, &cur, tol)
}

/// Write the profile into the baselines directory (`--baseline-write`).
pub fn write_baseline(qp: &QueryProfile) -> std::io::Result<PathBuf> {
    let dir = baselines_dir();
    std::fs::create_dir_all(&dir)?;
    qp.write_to(&dir)
}

/// Keys that hold wall-clock time (compared with tolerance, not exactly).
fn is_wall_key(key: &str) -> bool {
    key == "wall_ns" || key == "total_wall_ns"
}

/// Structural diff of two parsed `BENCH_*.json` documents.
pub fn diff(query: &str, base: &Json, cur: &Json, tol: &Tolerance) -> Result<Report, String> {
    let scale = |j: &Json| j.get("scale").and_then(Json::as_f64);
    match (scale(base), scale(cur)) {
        (Some(b), Some(c)) if b == c => {}
        (b, c) => {
            return Err(format!(
                "scale mismatch for {query}: baseline {b:?} vs current {c:?}; re-record the \
                 baseline at the checked scale"
            ))
        }
    }
    let mut report = Report {
        query: query.to_string(),
        regressions: Vec::new(),
        wall: Vec::new(),
    };
    let series_of = |j: &Json| -> Vec<(String, Json)> {
        j.get("series")
            .and_then(Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|s| {
                        Some((
                            s.get("name")?.as_str()?.to_string(),
                            s.get("profile")?.clone(),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let base_series = series_of(base);
    let cur_series = series_of(cur);
    for (name, base_profile) in &base_series {
        match cur_series.iter().find(|(n, _)| n == name) {
            None => report.regressions.push(Regression {
                series: name.clone(),
                op: "(profile)".to_string(),
                counter: "series".to_string(),
                baseline: "present".to_string(),
                current: "missing".to_string(),
            }),
            Some((_, cur_profile)) => {
                diff_profile(name, base_profile, cur_profile, tol, &mut report)
            }
        }
    }
    for (name, _) in &cur_series {
        if !base_series.iter().any(|(n, _)| n == name) {
            report.regressions.push(Regression {
                series: name.clone(),
                op: "(profile)".to_string(),
                counter: "series".to_string(),
                baseline: "missing".to_string(),
                current: "present".to_string(),
            });
        }
    }
    Ok(report)
}

fn diff_profile(series: &str, base: &Json, cur: &Json, tol: &Tolerance, report: &mut Report) {
    let ops_of = |j: &Json| -> Vec<(String, Json)> {
        j.get("ops")
            .and_then(Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|o| Some((o.get("name")?.as_str()?.to_string(), o.clone())))
                    .collect()
            })
            .unwrap_or_default()
    };
    let base_ops = ops_of(base);
    let cur_ops = ops_of(cur);
    for (op, base_stats) in &base_ops {
        match cur_ops.iter().find(|(n, _)| n == op) {
            None => report.regressions.push(Regression {
                series: series.to_string(),
                op: op.clone(),
                counter: "operator".to_string(),
                baseline: "present".to_string(),
                current: "missing".to_string(),
            }),
            Some((_, cur_stats)) => {
                diff_counters(series, op, base_stats, cur_stats, report);
            }
        }
    }
    for (op, _) in &cur_ops {
        if !base_ops.iter().any(|(n, _)| n == op) {
            report.regressions.push(Regression {
                series: series.to_string(),
                op: op.clone(),
                counter: "operator".to_string(),
                baseline: "missing".to_string(),
                current: "present".to_string(),
            });
        }
    }
    // Simulated I/O: exact (page counts are a function of the plan and the
    // deterministic data, not of the machine).
    diff_counters(
        series,
        "io",
        base.get("io").unwrap_or(&Json::Null),
        cur.get("io").unwrap_or(&Json::Null),
        report,
    );
    // Wall time: tolerance band.
    let wall = |j: &Json| j.get("total_wall_ns").and_then(Json::as_u64).unwrap_or(0);
    let (b, c) = (wall(base), wall(cur));
    report.wall.push((series.to_string(), b, c));
    if b > tol.wall_floor_ns && c > tol.wall_floor_ns {
        let ratio = c as f64 / b as f64;
        if ratio > tol.wall_factor {
            report.regressions.push(Regression {
                series: series.to_string(),
                op: "(profile)".to_string(),
                counter: format!(
                    "total_wall_ns ({:.1}x > {:.1}x band)",
                    ratio, tol.wall_factor
                ),
                baseline: format!("{:.1}ms", b as f64 / 1e6),
                current: format!("{:.1}ms", c as f64 / 1e6),
            });
        }
    }
}

/// Exact comparison of two flat-ish counter objects, recursing one level
/// into nested objects (`group_card_hist`), skipping wall-time keys.
fn diff_counters(series: &str, op: &str, base: &Json, cur: &Json, report: &mut Report) {
    let render = |j: &Json| -> String {
        match j {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => format!("{n}"),
            Json::Str(s) => s.clone(),
            _ => "(nested)".to_string(),
        }
    };
    let empty: [(String, Json); 0] = [];
    let base_keys = base.as_obj().unwrap_or(&empty);
    let cur_keys = cur.as_obj().unwrap_or(&empty);
    if base.as_obj().is_none() != cur.as_obj().is_none() {
        report.regressions.push(Regression {
            series: series.to_string(),
            op: op.to_string(),
            counter: "(shape)".to_string(),
            baseline: render(base),
            current: render(cur),
        });
        return;
    }
    for (key, bval) in base_keys {
        if key == "name" || is_wall_key(key) {
            continue;
        }
        match cur_keys.iter().find(|(k, _)| k == key) {
            None => report.regressions.push(Regression {
                series: series.to_string(),
                op: op.to_string(),
                counter: key.clone(),
                baseline: render(bval),
                current: "missing".to_string(),
            }),
            Some((_, cval)) => match (bval.as_obj(), cval.as_obj()) {
                (Some(_), Some(_)) => {
                    diff_counters(series, &format!("{op}.{key}"), bval, cval, report)
                }
                _ => {
                    if bval != cval {
                        report.regressions.push(Regression {
                            series: series.to_string(),
                            op: op.to_string(),
                            counter: key.clone(),
                            baseline: render(bval),
                            current: render(cval),
                        });
                    }
                }
            },
        }
    }
    for (key, cval) in cur_keys {
        if key == "name" || is_wall_key(key) {
            continue;
        }
        if !base_keys.iter().any(|(k, _)| k == key) {
            report.regressions.push(Regression {
                series: series.to_string(),
                op: op.to_string(),
                counter: key.clone(),
                baseline: "missing".to_string(),
                current: render(cval),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: Tolerance = Tolerance {
        wall_factor: 10.0,
        wall_floor_ns: 50_000_000,
    };

    fn doc(rows_out: u64, seq_pages: u64, wall: u64) -> String {
        format!(
            r#"{{"name": "T", "sql": "select 1", "scale": 0.02, "series": [
                {{"name": "native", "profile": {{"ops": [
                    {{"name": "b2/join", "invocations": 1, "rows_in": 10, "rows_out": {rows_out},
                      "wall_ns": 5, "group_card_hist": {{"0": 1, "1": 2}}}}],
                  "io": {{"seq_pages": {seq_pages}, "rand_hits": 0, "rand_misses": 0}},
                  "total_wall_ns": {wall}}}}}]}}"#
        )
    }

    fn parse(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn identical_profiles_pass() {
        let r = diff("T", &parse(&doc(7, 3, 10)), &parse(&doc(7, 3, 999)), &TOL).unwrap();
        assert!(r.passed(), "{:?}", r.regressions);
        assert_eq!(r.wall, vec![("native".to_string(), 10, 999)]);
    }

    #[test]
    fn row_count_drift_is_a_regression() {
        let r = diff("T", &parse(&doc(7, 3, 10)), &parse(&doc(8, 3, 10)), &TOL).unwrap();
        assert_eq!(r.regressions.len(), 1);
        let reg = &r.regressions[0];
        assert_eq!(
            (reg.op.as_str(), reg.counter.as_str()),
            ("b2/join", "rows_out")
        );
        assert_eq!((reg.baseline.as_str(), reg.current.as_str()), ("7", "8"));
        assert!(r
            .render_markdown()
            .contains("| native | `b2/join` | rows_out | 7 | 8 |"));
    }

    #[test]
    fn io_page_drift_is_a_regression() {
        let r = diff("T", &parse(&doc(7, 3, 10)), &parse(&doc(7, 4, 10)), &TOL).unwrap();
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].op, "io");
        assert_eq!(r.regressions[0].counter, "seq_pages");
    }

    #[test]
    fn histogram_buckets_compare_exactly() {
        let base = doc(7, 3, 10);
        let cur = base.replace(r#""0": 1"#, r#""0": 2"#);
        let r = diff("T", &parse(&base), &parse(&cur), &TOL).unwrap();
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].op, "b2/join.group_card_hist");
        assert_eq!(r.regressions[0].counter, "0");
    }

    #[test]
    fn wall_time_within_band_passes_beyond_band_fails() {
        // Both above the floor, ratio 4x < 10x: pass.
        let r = diff(
            "T",
            &parse(&doc(7, 3, 100_000_000)),
            &parse(&doc(7, 3, 400_000_000)),
            &TOL,
        )
        .unwrap();
        assert!(r.passed());
        // Ratio 20x: fail.
        let r = diff(
            "T",
            &parse(&doc(7, 3, 100_000_000)),
            &parse(&doc(7, 3, 2_000_000_000)),
            &TOL,
        )
        .unwrap();
        assert_eq!(r.regressions.len(), 1);
        assert!(r.regressions[0].counter.starts_with("total_wall_ns"));
        // Huge ratio but below the floor: pass (timer noise at tiny scale).
        let r = diff(
            "T",
            &parse(&doc(7, 3, 10)),
            &parse(&doc(7, 3, 10_000)),
            &TOL,
        )
        .unwrap();
        assert!(r.passed());
    }

    #[test]
    fn missing_operator_and_scale_mismatch() {
        let base = doc(7, 3, 10);
        let cur = base.replace("b2/join", "b2/hashjoin");
        let r = diff("T", &parse(&base), &parse(&cur), &TOL).unwrap();
        // One op vanished, a new one appeared.
        assert_eq!(r.regressions.len(), 2);
        assert!(r.regressions.iter().any(|x| x.current == "missing"));
        assert!(r.regressions.iter().any(|x| x.baseline == "missing"));

        let other_scale = base.replace("0.02", "0.5");
        assert!(diff("T", &parse(&base), &parse(&other_scale), &TOL).is_err());
    }
}
