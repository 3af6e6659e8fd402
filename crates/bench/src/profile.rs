//! Machine-readable execution profiles (`BENCH_*.json`).
//!
//! [`profile_query`] runs one series of a [`PreparedQuery`] with the
//! observability collector ([`nra_obs`]) and the I/O simulator enabled,
//! and returns the per-operator [`nra_obs::Profile`]. [`QueryProfile`]
//! bundles the profiles of every series for one query and serializes the
//! bundle as JSON (hand-rolled — the workspace carries no serde): the
//! form `experiments --baseline-write` commits as
//! `crates/bench/baselines/BENCH_<name>.json` and `--baseline-check`
//! diffs in memory.

use std::io::Write as _;

use nra_obs::json::write_string as json_string;
use nra_obs::Profile;
use nra_storage::iosim::{self, IoConfig};
use nra_storage::Catalog;

use crate::{PreparedQuery, Series};

/// Run one series once under the collector + I/O simulator and return the
/// profile. Pre-existing simulator state is replaced (it is thread-local;
/// benchmarks are single-threaded); a collector the caller armed is
/// restored.
pub fn profile_query(pq: &PreparedQuery<'_>, series: Series, io_cfg: &IoConfig) -> Profile {
    let obs = nra_obs::enter(nra_obs::Observers {
        profile: true,
        ..nra_obs::Observers::default()
    });
    iosim::enable(*io_cfg);
    pq.run(series).expect("profiled query runs");
    let profile = obs.finish().expect("collector was armed");
    iosim::disable();
    profile
}

/// The profiles of every series for one query, ready to serialize.
pub struct QueryProfile {
    /// Artifact stem: the file is written as `BENCH_<name>.json`.
    pub name: String,
    pub sql: String,
    pub scale: f64,
    pub series: Vec<(&'static str, Profile)>,
}

impl QueryProfile {
    /// Profile every series of `pq`.
    pub fn collect(name: &str, pq: &PreparedQuery<'_>, scale: f64) -> QueryProfile {
        let io_cfg = crate::io_config_for(pq.catalog);
        QueryProfile {
            name: name.to_string(),
            sql: pq.sql.clone(),
            scale,
            series: Series::ALL
                .iter()
                .map(|&s| (s.label(), profile_query(pq, s, &io_cfg)))
                .collect(),
        }
    }

    /// Schema:
    /// ```json
    /// {"name": "Q1", "sql": "...", "scale": 0.5,
    ///  "series": [{"name": "native", "profile": {<Profile::to_json>}}]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"name\": ");
        json_string(&mut out, &self.name);
        out.push_str(", \"sql\": ");
        json_string(&mut out, &self.sql);
        out.push_str(&format!(", \"scale\": {}", self.scale));
        out.push_str(", \"series\": [");
        for (i, (label, profile)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"name\": ");
            json_string(&mut out, label);
            out.push_str(", \"profile\": ");
            out.push_str(&profile.to_json());
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Write `BENCH_<name>.json` into `dir` and return the path.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")?;
        Ok(path)
    }
}

/// Profile every series of the [`headline_queries`](crate::headline_queries):
/// what `crates/bench/baselines/` holds at scale 0.02.
pub fn headline_profiles(strict: &Catalog, nullable: &Catalog, scale: f64) -> Vec<QueryProfile> {
    crate::headline_queries(strict, nullable, scale)
        .into_iter()
        .map(|(name, cat, sql)| {
            let pq = PreparedQuery::new(cat, sql).expect("headline query binds");
            QueryProfile::collect(name, &pq, scale)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench_catalog, q1_sql};

    #[test]
    fn profiles_carry_operator_and_io_stats() {
        let cat = bench_catalog(0.005);
        let sql = q1_sql(&cat, 50);
        let pq = PreparedQuery::new(&cat, sql).unwrap();
        let qp = QueryProfile::collect("TEST", &pq, 0.005);
        assert_eq!(qp.series.len(), 3);
        for (label, profile) in &qp.series {
            assert!(!profile.ops.is_empty(), "{label} profile has operators");
            assert!(profile.total_wall_ns() > 0, "{label} has timing");
            assert!(profile.io.is_some(), "{label} folds in I/O stats");
        }
        // NR series must expose nest groups and linking outcomes.
        for label in ["nr-original", "nr-optimized"] {
            let profile = &qp.series.iter().find(|(l, _)| *l == label).unwrap().1;
            assert!(
                profile.ops.iter().any(|(_, s)| s.nest_groups > 0),
                "{label} records nest groups"
            );
            assert!(
                profile
                    .ops
                    .iter()
                    .any(|(_, s)| s.pass + s.fail + s.unknown > 0),
                "{label} records 3VL outcomes"
            );
        }
        let json = qp.to_json();
        assert!(json.contains("\"series\""));
        assert!(json.contains("\"nr-optimized\""));
        assert!(json.contains("\"seq_pages\""));
    }

    #[test]
    fn profiling_leaves_collector_disabled() {
        let cat = bench_catalog(0.005);
        let sql = q1_sql(&cat, 50);
        let pq = PreparedQuery::new(&cat, sql).unwrap();
        let io_cfg = crate::io_config_for(&cat);
        let _ = profile_query(&pq, Series::Native, &io_cfg);
        assert!(!nra_obs::is_enabled());
        assert!(!iosim::is_enabled());
    }
}
