//! `Config::from_lookup` over every knob, driven through a closure — no
//! process-environment mutation — plus the README table that documents
//! the knobs.

use std::cell::RefCell;

use nra_engine::{Config, EngineError};

/// Every variable `Config::from_lookup` asks for, as the parser itself
/// reports them: the knob list cannot drift from the code.
fn knobs() -> Vec<String> {
    let seen = RefCell::new(Vec::new());
    let config = Config::from_lookup(&|var| {
        seen.borrow_mut().push(var.to_string());
        None
    });
    assert_eq!(config.unwrap(), Config::default());
    seen.into_inner()
}

/// The expectation for a value the parser must refuse.
const REJECT: &str = "";

/// Every knob × {unset, valid, malformed, out-of-range}. A case expects
/// a fragment of the parsed `Config`'s `Debug` text (valid, or clamped
/// where a hard cap exists), or [`REJECT`]: an `EngineError::Config`
/// naming the variable and value.
#[test]
fn every_knob_parses_strictly() {
    let cases = [
        ("NRA_THREADS", "4", "threads: Some(4)"),
        ("NRA_THREADS", " 2 ", "threads: Some(2)"),
        ("NRA_THREADS", "0", "threads: Some(1)"),
        ("NRA_THREADS", "1000", "threads: Some(64)"),
        ("NRA_THREADS", "four", REJECT),
        ("NRA_THREADS", "-1", REJECT),
        ("NRA_BATCH_ROWS", "3", "batch_rows: Some(3)"),
        ("NRA_BATCH_ROWS", "0", REJECT),
        ("NRA_BATCH_ROWS", "lots", REJECT),
        ("NRA_MEM_LIMIT", "1024", "mem_limit: Some(1024)"),
        ("NRA_MEM_LIMIT", "1GB", REJECT),
        ("NRA_MEM_LIMIT", "-5", REJECT),
        ("NRA_FAULT", "join-build:1", "(\"join-build\", 1, Panic)"),
        (
            "NRA_FAULT",
            "wal-fsync:2:crash",
            "(\"wal-fsync\", 2, Crash)",
        ),
        ("NRA_FAULT", "", "engine: [], io: []"),
        ("NRA_FAULT", "bogus", REJECT),
        ("NRA_MAX_CONCURRENT", "8", "max_concurrent: Some(8)"),
        ("NRA_MAX_CONCURRENT", "0", "max_concurrent: Some(1)"),
        ("NRA_MAX_CONCURRENT", "many", REJECT),
        ("NRA_ADMISSION_MEM", "4096", "mem_cap_bytes: Some(4096)"),
        ("NRA_ADMISSION_MEM", "4k", REJECT),
        ("NRA_ADMISSION_TIMEOUT_MS", "0", "queue_timeout_ms: 0"),
        ("NRA_ADMISSION_TIMEOUT_MS", "1s", REJECT),
        ("NRA_PLAN_CACHE", "0", "plan_cache: Some(false)"),
        ("NRA_PLAN_CACHE", "off", "plan_cache: Some(false)"),
        ("NRA_PLAN_CACHE", "1", "plan_cache: Some(true)"),
        ("NRA_PLAN_CACHE", "maybe", REJECT),
        ("NRA_METRICS", "m.jsonl", "metrics_path: Some(\"m.jsonl\")"),
        ("NRA_METRICS", "", "metrics_path: None"),
        ("NRA_SLOW_MS", "0", "slow_ms: Some(0)"),
        ("NRA_SLOW_MS", "fast", REJECT),
        ("NRA_SLOW_MS", "-1", REJECT),
        ("NRA_SLOW_LOG", "s.jsonl", "slow_log: Some(\"s.jsonl\")"),
        ("NRA_SLOW_LOG", "", "slow_log: None"),
        ("NRA_TRACE", "1", "trace_stderr: true"),
        ("NRA_TRACE", "0", "trace_stderr: false"),
        ("NRA_TRACE", "loud", REJECT),
        ("NRA_TRACE_FILE", "t.jsonl", "trace_file: Some(\"t.jsonl\")"),
        ("NRA_TRACE_FILE", "", "trace_file: None"),
        ("NRA_CHECKPOINT_EVERY", "0", "checkpoint_every: Some(0)"),
        ("NRA_CHECKPOINT_EVERY", "128", "checkpoint_every: Some(128)"),
        ("NRA_CHECKPOINT_EVERY", "often", REJECT),
        ("NRA_CHECKPOINT_EVERY", "-1", REJECT),
    ];
    let knobs = knobs();
    assert_eq!(knobs.len(), 14, "{knobs:?}");
    for knob in &knobs {
        assert!(cases.iter().any(|c| c.0 == knob), "{knob} has no case");
    }
    for (var, value, expect) in cases {
        let parsed = Config::from_lookup(&|v| (v == var).then(|| value.to_string()));
        match parsed {
            Ok(config) => {
                let text = format!("{config:?}");
                assert!(
                    expect != REJECT && text.contains(expect),
                    "{var}={value}: {text}"
                );
            }
            Err(EngineError::Config {
                var: v,
                value: got,
                detail,
            }) => {
                assert_eq!((v.as_str(), got.as_str(), expect), (var, value, REJECT));
                assert!(!detail.is_empty());
            }
            Err(other) => panic!("{var}={value}: unexpected {other:?}"),
        }
    }
}

/// README's "Configuration" table has a row for every knob `Config`
/// parses.
#[test]
fn readme_documents_every_knob() {
    let readme = include_str!("../../../README.md");
    let table = readme
        .split("## Configuration")
        .nth(1)
        .expect("README has a Configuration section");
    for knob in knobs() {
        assert!(
            table.contains(&format!("| `{knob}` |")),
            "{knob} is not in the table"
        );
    }
}
