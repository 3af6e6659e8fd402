//! The one configuration path: every `NRA_*` knob, parsed strictly,
//! once.
//!
//! [`Config::from_lookup`] is the only parser, and
//! [`Config::from_env`], called when a `Database` is built, its only
//! caller outside tests: the database keeps the result, so nothing reads
//! the environment per query. A malformed value — `NRA_SLOW_MS=soon`,
//! `NRA_FAULT=join-build:x:panic` — is a structured
//! [`EngineError::Config`], never a silent fallback.
//!
//! Resolution order for anything a query can override: per-query option
//! → session default → `Config` → built-in default.

use crate::error::EngineError;
use crate::governor::AdmissionConfig;
use nra_storage::fault::{self, Fault};

/// The parsed environment: one plain value per knob, `None` where the
/// knob is unset and the consumer's built-in default applies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Config {
    /// `NRA_MEM_LIMIT`: default per-query memory budget in bytes.
    pub mem_limit: Option<u64>,
    /// `NRA_FAULT`: the fault entries armed afresh on every query and,
    /// in one plan for the database's lifetime, around every durable
    /// write (see `nra_storage::fault`).
    pub faults: Vec<Fault>,
    /// `NRA_MAX_CONCURRENT` / `NRA_ADMISSION_MEM` /
    /// `NRA_ADMISSION_TIMEOUT_MS`: a database's initial admission caps.
    pub admission: AdmissionConfig,
    /// `NRA_METRICS`: JSONL file every query's metrics snapshot is
    /// appended to.
    pub metrics_path: Option<String>,
    /// `NRA_SLOW_MS`: default slow-query threshold (`0` logs all).
    pub slow_ms: Option<u64>,
    /// `NRA_SLOW_LOG`: default slow-query log path.
    pub slow_log: Option<String>,
}

type Lookup<'a> = &'a dyn Fn(&str) -> Option<String>;

fn config_err(var: &str, value: &str, detail: String) -> EngineError {
    EngineError::Config {
        var: var.to_string(),
        value: value.to_string(),
        detail,
    }
}

/// A non-negative integer knob; `what` completes "must be …".
fn number<T: std::str::FromStr>(
    get: Lookup,
    var: &str,
    what: &str,
) -> Result<Option<T>, EngineError> {
    get(var)
        .map(|v| {
            v.trim()
                .parse::<T>()
                .map_err(|_| config_err(var, &v, format!("must be {what}")))
        })
        .transpose()
}

/// A path knob; empty counts as unset.
fn path(get: Lookup, var: &str) -> Option<String> {
    get(var).filter(|p| !p.is_empty())
}

impl Config {
    /// Parse every knob from `get` (the environment, or a closure in
    /// tests). The first malformed value is returned as
    /// [`EngineError::Config`].
    pub fn from_lookup(get: Lookup) -> Result<Config, EngineError> {
        let faults = match get("NRA_FAULT") {
            None => Vec::new(),
            Some(spec) => {
                fault::parse(&spec).map_err(|detail| config_err("NRA_FAULT", &spec, detail))?
            }
        };
        let mut admission = AdmissionConfig::default();
        if let Some(n) = number::<usize>(get, "NRA_MAX_CONCURRENT", "a query count")? {
            admission = admission.max_concurrent(n);
        }
        if let Some(bytes) = number(get, "NRA_ADMISSION_MEM", "a byte count")? {
            admission = admission.mem_cap_bytes(bytes);
        }
        if let Some(ms) = number(get, "NRA_ADMISSION_TIMEOUT_MS", "a millisecond count")? {
            admission = admission.queue_timeout_ms(ms);
        }
        Ok(Config {
            mem_limit: number(get, "NRA_MEM_LIMIT", "a byte count (a plain integer)")?,
            faults,
            admission,
            metrics_path: path(get, "NRA_METRICS"),
            slow_ms: number(get, "NRA_SLOW_MS", "a millisecond count")?,
            slow_log: path(get, "NRA_SLOW_LOG"),
        })
    }

    /// [`Config::from_lookup`] over the process environment — the only
    /// place the engine reads it.
    pub fn from_env() -> Result<Config, EngineError> {
        Config::from_lookup(&|var| std::env::var(var).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault_detail(spec: &str) -> String {
        match Config::from_lookup(&|var| (var == "NRA_FAULT").then(|| spec.to_string())) {
            Err(EngineError::Config { var, value, detail }) => {
                assert_eq!((var.as_str(), value.as_str()), ("NRA_FAULT", spec));
                detail
            }
            other => panic!("spec `{spec}`: expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_fault_specs_are_rejected_with_detail() {
        let cases = [
            ("nonsense", "unknown fault site"),
            ("join-build", "missing the `nth`"),
            ("join-build:x:panic", "`nth` must be an integer"),
            ("join-build:2:explode", "unknown fault kind"),
            ("join-build:1:crash", "unknown fault kind"),
            ("wal-fsync:1:alloc", "unknown fault kind"),
            ("wal-apend:1:crash", "unknown fault site"),
            ("join-build:1:panic:50", "only `delay`"),
            ("join-build:1:delay:soon", "milliseconds must be an integer"),
            ("join-build:1:delay:5:x", "too many"),
        ];
        for (spec, needle) in cases {
            let err = fault_detail(spec);
            assert!(err.contains(needle), "spec `{spec}`: got `{err}`");
        }
        assert_eq!(
            fault_detail("join-build:1:crash"),
            "entry `join-build:1:crash`: unknown fault kind `crash` at site `join-build` \
             (known: alloc, panic, delay)"
        );
        assert_eq!(
            fault_detail("nonsense"),
            "unknown fault site `nonsense` (known: join-build, nest-flush, linking-scan, \
             wal-append, wal-fsync, checkpoint-write, snapshot-rename)"
        );
    }
}
