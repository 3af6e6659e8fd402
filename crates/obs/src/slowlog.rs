//! Slow-query log: schema-validated JSONL records for queries whose wall
//! time crossed a threshold.
//!
//! The query entry point builds a [`SlowRecord`] when a query's wall
//! time reaches `QueryOptions::slow_ms` (default: the `NRA_SLOW_MS`
//! knob; `0` logs every query) and appends its
//! [`SlowRecord::to_jsonl`] line to the `NRA_SLOW_LOG` path — the same
//! append-JSONL idiom the `NRA_METRICS` sink uses. Every string goes
//! through [`crate::json`]'s single escaping routine, and [`validate`] /
//! [`validate_lines`] re-parse emitted records against the schema, so CI
//! can gate on the log staying machine-readable.
//!
//! Record schema (one JSON object per line):
//!
//! ```json
//! {"statement": "select ...", "outcome": "ok", "wall_ms": 12,
//!  "rows": 100, "strategy": "original",
//!  "mem_bytes": 0, "plan": "..." | null,
//!  "profile": {"ops": [...], ...} | null,
//!  "progress": {"phase": "...", "percent": 100, "rows_processed": 0,
//!               "rows_estimated": 0, "elapsed_ms": 0, "mem_bytes": 0,
//!               "done": true}}
//! ```

use crate::json::{self, Json};
use crate::progress::ProgressSnapshot;
use crate::queryreg::QueryRecord;
use crate::Profile;

/// Everything one slow-query record carries.
pub struct SlowRecord<'a> {
    /// The finished query; its `sql` is the statement as the plan cache
    /// keyed it.
    pub query: &'a QueryRecord,
    /// Rendered plan text, when one was produced for this query.
    pub plan: Option<&'a str>,
    /// The merged per-operator profile, when one was collected.
    pub profile: Option<&'a Profile>,
    /// The final progress snapshot.
    pub progress: &'a ProgressSnapshot,
}

impl SlowRecord<'_> {
    /// One newline-terminated JSONL line.
    pub fn to_jsonl(&self) -> String {
        let q = self.query;
        let mut out = String::from("{\"statement\": ");
        json::write_string(&mut out, &q.sql);
        out.push_str(", \"outcome\": ");
        json::write_string(&mut out, q.outcome);
        out.push_str(&format!(
            ", \"wall_ms\": {}, \"rows\": {}, \"strategy\": ",
            q.wall_ms, q.rows
        ));
        json::write_string(&mut out, q.strategy);
        out.push_str(&format!(", \"mem_bytes\": {}", q.mem_bytes));
        out.push_str(", \"plan\": ");
        match self.plan {
            Some(p) => json::write_string(&mut out, p),
            None => out.push_str("null"),
        }
        out.push_str(", \"profile\": ");
        match self.profile {
            Some(p) => out.push_str(&p.to_json()),
            None => out.push_str("null"),
        }
        out.push_str(", \"progress\": ");
        out.push_str(&self.progress.to_json());
        out.push_str("}\n");
        out
    }
}

fn require_u64(v: &Json, key: &str) -> Result<(), String> {
    v.get(key)
        .and_then(Json::as_u64)
        .map(|_| ())
        .ok_or_else(|| format!("missing or non-numeric `{key}`"))
}

fn require_str(v: &Json, key: &str) -> Result<(), String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(|_| ())
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

/// Validate one slow-log line against the record schema.
pub fn validate(line: &str) -> Result<(), String> {
    let v = Json::parse(line.trim()).map_err(|e| e.to_string())?;
    for key in ["statement", "outcome", "strategy"] {
        require_str(&v, key)?;
    }
    for key in ["wall_ms", "rows", "mem_bytes"] {
        require_u64(&v, key)?;
    }
    match v.get("plan") {
        Some(Json::Str(_)) | Some(Json::Null) => {}
        _ => return Err("missing or non-string/null `plan`".to_string()),
    }
    match v.get("profile") {
        Some(p @ Json::Obj(_)) => {
            p.get("ops")
                .and_then(Json::as_arr)
                .ok_or("`profile` lacks an `ops` array")?;
        }
        Some(Json::Null) => {}
        _ => return Err("missing or non-object/null `profile`".to_string()),
    }
    let progress = v
        .get("progress")
        .filter(|p| matches!(p, Json::Obj(_)))
        .ok_or("missing or non-object `progress`")?;
    require_str(progress, "phase")?;
    for key in [
        "percent",
        "rows_processed",
        "rows_estimated",
        "elapsed_ms",
        "mem_bytes",
    ] {
        require_u64(progress, key)?;
    }
    match progress.get("done") {
        Some(Json::Bool(_)) => Ok(()),
        _ => Err("missing or non-boolean `progress.done`".to_string()),
    }
}

/// Validate a whole log (one record per non-empty line), returning the
/// record count or the first failure with its line number.
pub fn validate_lines(contents: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in contents.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::ProgressState;

    fn snapshot() -> ProgressSnapshot {
        let p = ProgressState::new();
        p.set_estimated(10);
        p.finish(12, "done");
        p.snapshot()
    }

    fn record<'a>(progress: &'a ProgressSnapshot, profile: Option<&'a Profile>) -> SlowRecord<'a> {
        static QUERY: std::sync::OnceLock<QueryRecord> = std::sync::OnceLock::new();
        SlowRecord {
            query: QUERY.get_or_init(|| QueryRecord {
                id: 1,
                sql: "select \"weird\" from t".to_string(),
                outcome: "ok",
                wall_ms: 7,
                rows: 12,
                qerror_x100: 0,
                mem_bytes: 0,
                strategy: "original",
                session: 0,
            }),
            plan: None,
            profile,
            progress,
        }
    }

    #[test]
    fn records_validate_and_roundtrip() {
        let snap = snapshot();
        let line = record(&snap, None).to_jsonl();
        assert!(line.ends_with('\n'));
        validate(&line).unwrap();
        let v = Json::parse(line.trim()).unwrap();
        assert_eq!(
            v.get("statement").unwrap().as_str(),
            Some("select \"weird\" from t")
        );
        assert_eq!(v.get("profile"), Some(&Json::Null));
        assert_eq!(
            v.get("progress").unwrap().get("percent").unwrap().as_u64(),
            Some(100)
        );
    }

    #[test]
    fn records_embed_profiles() {
        let obs = crate::tests::profiling();
        crate::span(|| "join".to_string()).rows_out(3);
        let profile = obs.finish().0.unwrap();
        let snap = snapshot();
        let line = record(&snap, Some(&profile)).to_jsonl();
        validate(&line).unwrap();
        let v = Json::parse(line.trim()).unwrap();
        let ops = v.get("profile").unwrap().get("ops").unwrap();
        assert_eq!(
            ops.as_arr().unwrap()[0].get("name").unwrap().as_str(),
            Some("join")
        );
    }

    #[test]
    fn validation_rejects_malformed_records() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        let snap = snapshot();
        let good = record(&snap, None).to_jsonl();
        let bad = good.replace("\"wall_ms\": 7", "\"wall_ms\": \"7\"");
        assert!(validate(&bad).is_err());
        let bad = good.replace("\"progress\"", "\"progresz\"");
        assert!(validate(&bad).is_err());
    }

    #[test]
    fn multi_line_logs_validate_with_line_numbers() {
        let snap = snapshot();
        let line = record(&snap, None).to_jsonl();
        let contents = format!("{line}\n{line}");
        assert_eq!(validate_lines(&contents), Ok(2));
        let broken = format!("{line}{{\"nope\": 1}}\n");
        let err = validate_lines(&broken).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
