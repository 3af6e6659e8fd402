//! The one configuration path: every `NRA_*` knob, parsed strictly,
//! once.
//!
//! [`Config::from_lookup`] is the only parser. It has two callers:
//! [`Config::from_env`] when a `Database` is built (the database keeps
//! the result, so nothing reads the environment per query), and the
//! process-wide [`Config::process`] default for code that runs without a
//! database (crate tests and benches calling `nra_core::execute`
//! directly). A malformed value — `NRA_THREADS=four`,
//! `NRA_FAULT=join-build:x:panic`, `NRA_PLAN_CACHE=maybe` — is a
//! structured [`EngineError::Config`], never a silent fallback.
//!
//! Resolution order for anything a query can override: per-query option
//! → session default → ambient [`QueryCtx`](crate::ctx::QueryCtx)
//! setter → `Config` → built-in default.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

use crate::error::EngineError;
use crate::exec::MAX_THREADS;
use crate::faultinject::{self, FaultKind};
use crate::governor::AdmissionConfig;
use nra_storage::iofault::{self, IoFaultKind};

/// Milliseconds a `delay` fault sleeps when the spec gives none.
const DEFAULT_DELAY_MS: u64 = 10;

/// The parsed `NRA_FAULT` entries, each `(site, nth, kind)`, split by
/// the harness that owns the site: [`faultinject::SITES`] or
/// [`iofault::IO_SITES`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpecs {
    pub engine: Vec<(String, u64, FaultKind)>,
    pub io: Vec<(String, u64, IoFaultKind)>,
}

/// Parse the `NRA_FAULT` grammar — comma-separated
/// `site:nth[:kind[:ms]]` — strictly: unknown sites, kinds outside the
/// site's vocabulary, non-integer counts and stray fields are errors
/// (the returned string is the `detail` of an [`EngineError::Config`]).
/// The kind defaults to `panic` at engine sites and `io-error` at I/O
/// sites; only `delay` takes the milliseconds field.
pub fn parse_fault_spec(spec: &str) -> Result<FaultSpecs, String> {
    let mut specs = FaultSpecs::default();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').map(str::trim).collect();
        if parts.len() > 4 {
            return Err(format!("entry `{entry}` has too many `:` fields"));
        }
        let site = parts[0];
        let engine = faultinject::SITES.contains(&site);
        if !engine && !iofault::IO_SITES.contains(&site) {
            return Err(format!(
                "unknown fault site `{site}` (known: {}, {})",
                faultinject::SITES.join(", "),
                iofault::IO_SITES.join(", ")
            ));
        }
        let Some(nth) = parts.get(1) else {
            return Err(format!("entry `{entry}` is missing the `nth` field"));
        };
        let nth = nth
            .parse::<u64>()
            .map_err(|_| format!("entry `{entry}`: `nth` must be an integer, got `{nth}`"))?;
        let kind = parts.get(2).copied();
        let ms = match parts.get(3) {
            None => DEFAULT_DELAY_MS,
            Some(_) if kind != Some("delay") => {
                return Err(format!(
                    "entry `{entry}`: only `delay` takes a milliseconds field"
                ));
            }
            Some(ms) => ms.parse::<u64>().map_err(|_| {
                format!("entry `{entry}`: milliseconds must be an integer, got `{ms}`")
            })?,
        };
        let site = site.to_string();
        match (engine, kind) {
            (true, None | Some("panic")) => specs.engine.push((site, nth, FaultKind::Panic)),
            (true, Some("alloc")) => specs.engine.push((site, nth, FaultKind::AllocFail)),
            (true, Some("delay")) => specs.engine.push((site, nth, FaultKind::Delay(ms))),
            (false, None | Some("io-error")) => specs.io.push((site, nth, IoFaultKind::IoError)),
            (false, Some("short-write")) => specs.io.push((site, nth, IoFaultKind::ShortWrite)),
            (false, Some("crash")) => specs.io.push((site, nth, IoFaultKind::Crash)),
            (false, Some("delay")) => specs.io.push((site, nth, IoFaultKind::Delay(ms))),
            (_, Some(kind)) => {
                let known = if engine {
                    "alloc, panic, delay"
                } else {
                    "short-write, crash, io-error, delay"
                };
                return Err(format!(
                    "entry `{entry}`: unknown fault kind `{kind}` at site `{site}` (known: {known})"
                ));
            }
        }
    }
    Ok(specs)
}

/// The parsed environment: one plain value per knob, `None` where the
/// knob is unset and the consumer's built-in default applies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Config {
    /// `NRA_THREADS`: default worker budget, clamped to `1..=MAX_THREADS`.
    pub threads: Option<usize>,
    /// `NRA_BATCH_ROWS`: default vectorized window width (≥ 1).
    pub batch_rows: Option<usize>,
    /// `NRA_MEM_LIMIT`: default per-query memory budget in bytes.
    pub mem_limit: Option<u64>,
    /// `NRA_FAULT`: faults armed on every query (engine sites) and
    /// around every durable write (I/O sites).
    pub faults: FaultSpecs,
    /// `NRA_MAX_CONCURRENT` / `NRA_ADMISSION_MEM` /
    /// `NRA_ADMISSION_TIMEOUT_MS`: a database's initial admission caps.
    pub admission: AdmissionConfig,
    /// `NRA_PLAN_CACHE`: whether queries use the plan cache by default
    /// (built-in default: on).
    pub plan_cache: Option<bool>,
    /// `NRA_METRICS`: JSONL file every query's metrics snapshot is
    /// appended to.
    pub metrics_path: Option<String>,
    /// `NRA_SLOW_MS`: default slow-query threshold (`0` logs all).
    pub slow_ms: Option<u64>,
    /// `NRA_SLOW_LOG`: default slow-query log path.
    pub slow_log: Option<String>,
    /// `NRA_TRACE`: mirror collected traces to stderr.
    pub trace_stderr: bool,
    /// `NRA_TRACE_FILE`: mirror collected traces to this JSONL file.
    pub trace_file: Option<String>,
    /// `NRA_CHECKPOINT_EVERY`: WAL records between a durable database's
    /// automatic checkpoints (`0` disables; built-in default: 4096).
    pub checkpoint_every: Option<u64>,
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

fn flag(get: Lookup, var: &str) -> Result<Option<bool>, EngineError> {
    get(var)
        .map(|v| match v.trim() {
            "1" | "on" | "true" => Ok(true),
            "0" | "off" | "false" => Ok(false),
            _ => Err(config_err(
                var,
                &v,
                "must be 1/on/true or 0/off/false".into(),
            )),
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
            None => FaultSpecs::default(),
            Some(spec) => {
                parse_fault_spec(&spec).map_err(|detail| config_err("NRA_FAULT", &spec, detail))?
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
            threads: number::<usize>(get, "NRA_THREADS", "a worker-thread count")?
                .map(|n| n.clamp(1, MAX_THREADS)),
            batch_rows: number::<NonZeroUsize>(get, "NRA_BATCH_ROWS", "a row count of at least 1")?
                .map(NonZeroUsize::get),
            mem_limit: number(get, "NRA_MEM_LIMIT", "a byte count (a plain integer)")?,
            faults,
            admission,
            plan_cache: flag(get, "NRA_PLAN_CACHE")?,
            metrics_path: path(get, "NRA_METRICS"),
            slow_ms: number(get, "NRA_SLOW_MS", "a millisecond count")?,
            slow_log: path(get, "NRA_SLOW_LOG"),
            trace_stderr: flag(get, "NRA_TRACE")?.unwrap_or(false),
            trace_file: path(get, "NRA_TRACE_FILE"),
            checkpoint_every: number(
                get,
                "NRA_CHECKPOINT_EVERY",
                "a record count (0 disables automatic checkpoints)",
            )?,
        })
    }

    /// [`Config::from_lookup`] over the process environment — the only
    /// place the engine reads it.
    pub fn from_env() -> Result<Config, EngineError> {
        Config::from_lookup(&|var| std::env::var(var).ok())
    }

    /// The process-wide default, read once on first use, for code that
    /// runs operators without a `Database`. A malformed environment is
    /// reported on stderr and the built-in defaults apply (a `Database`
    /// built in the same process returns the error from `execute`).
    pub fn process() -> &'static Config {
        static PROCESS: OnceLock<Config> = OnceLock::new();
        PROCESS.get_or_init(|| {
            Config::from_env().unwrap_or_else(|e| {
                eprintln!("nra: {e}; using built-in defaults");
                Config::default()
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_grammar_splits_entries_by_owner() {
        let specs = parse_fault_spec(
            "join-build:1:panic, nest-flush:3:alloc,linking-scan:2, partition-merge:1:delay:25, \
             nest-flush:1:delay, wal-append:1:short-write,wal-fsync:2:crash, \
             checkpoint-write:1,snapshot-rename:1:delay:5, ,",
        )
        .unwrap();
        let engine: Vec<_> = specs.engine.iter().map(|e| e.2).collect();
        assert_eq!(
            engine,
            [
                FaultKind::Panic,
                FaultKind::AllocFail,
                FaultKind::Panic,
                FaultKind::Delay(25),
                FaultKind::Delay(10),
            ]
        );
        assert_eq!(
            specs.engine[1],
            ("nest-flush".into(), 3, FaultKind::AllocFail)
        );
        let io: Vec<_> = specs.io.iter().map(|e| e.2).collect();
        assert_eq!(
            io,
            [
                IoFaultKind::ShortWrite,
                IoFaultKind::Crash,
                IoFaultKind::IoError,
                IoFaultKind::Delay(5),
            ]
        );
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
            let err = parse_fault_spec(spec).unwrap_err();
            assert!(err.contains(needle), "spec `{spec}`: got `{err}`");
        }
    }
}
