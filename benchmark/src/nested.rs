//! `nested_heavy` / `nested_parallel`: one closed-loop client sending the
//! six nested TPC-H query classes round-robin over the wire.
//!
//! The two workloads differ only in the session's thread budget (1 vs 2):
//! the same operators, reached sequentially or through
//! `nra_engine::exec` partitioning. Rounds are whole — every class gets
//! the same number of samples.

use std::io;
use std::time::{Duration, Instant};

use nra::core::Strategy;
use nra::{Database, QueryOptions};

use crate::common::{Phase, Served};
use crate::data::{self, Expected};
use crate::report::CLASSES;
use crate::trace::Tracer;
use crate::wire::{Frame, WireClient};

pub struct Nested {
    served: Served,
    client: WireClient,
    sql: Vec<String>,
    threads: usize,
}

/// Everything the system needs before it serves at steady state:
/// generate the data, load it, start the server, connect, set the thread
/// budget and run one warm-up round (fills the plan cache).
pub fn setup(seed: u64, scale: f64, threads: usize) -> io::Result<Nested> {
    let cat = data::tpch_catalog(scale, seed);
    let sql = data::class_sql(&cat, scale);
    let served = Served::start(Database::from_catalog(cat))?;
    let mut client = WireClient::connect(served.addr)?;
    client.command(&format!(".set threads {threads}"))?;
    for q in &sql {
        client.request(q, false)?;
    }
    Ok(Nested {
        served,
        client,
        sql,
        threads,
    })
}

/// What the wire answered, kept for checking once the oracle has run:
/// the measured window comes first, on a process that has allocated
/// nothing but the served data, and the oracle after it.
pub struct Answers {
    /// Row count of every response, per class.
    rows: Vec<Vec<usize>>,
    /// Row digest of the first response, per class.
    digests: Vec<Option<u64>>,
}

impl Answers {
    fn new() -> Answers {
        Answers {
            rows: vec![Vec::new(); CLASSES.len()],
            digests: vec![None; CLASSES.len()],
        }
    }

    /// Count every response that differs from the oracle's answer as a
    /// failure of `phase`.
    pub fn verify(&self, expected: &[Expected], phase: &mut Phase) {
        for (class, exp) in expected.iter().enumerate() {
            let name = CLASSES[class];
            if self.digests[class] != Some(exp.digest) {
                phase.fail(format!("{name}: row digest differs from the oracle's"));
            }
            for rows in self.rows[class].iter().filter(|r| **r != exp.rows) {
                phase.fail(format!("{name}: {rows} rows, expected {}", exp.rows));
            }
        }
    }
}

impl Nested {
    pub fn teardown(self) {
        drop(self.client);
        self.served.shutdown();
    }

    /// Send one class over the wire, time it and record its answer.
    /// Returns the answer's row count when a result came back.
    fn wire_request(
        &mut self,
        class: usize,
        phase: &mut Phase,
        answers: &mut Answers,
    ) -> Option<usize> {
        let want_digest = answers.digests[class].is_none();
        let start = Instant::now();
        let frame = self.client.request(&self.sql[class], want_digest);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        phase.attempted += 1;
        let name = CLASSES[class];
        match frame {
            Ok(Frame::Ok { rows, digest, .. }) => {
                phase.classes[class].1.push(ms);
                answers.rows[class].push(rows);
                if want_digest {
                    answers.digests[class] = digest;
                }
                return Some(rows);
            }
            Ok(Frame::Err(e)) => phase.fail(format!("{name}: err frame: {e}")),
            Err(e) => phase.fail(format!("{name}: transport: {e}")),
        }
        None
    }

    /// Whole rounds of the six classes until `seconds` have passed.
    pub fn measure(&mut self, seconds: f64) -> (Phase, Answers) {
        let mut phase = Phase::with_classes(&CLASSES);
        let mut answers = Answers::new();
        let window = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        while phase.attempted == 0 || start.elapsed() < window {
            for class in 0..CLASSES.len() {
                self.wire_request(class, &mut phase, &mut answers);
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        (phase, answers)
    }

    /// The traced replay: plain rounds and traced rounds alternate until
    /// `seconds` have passed, so the two are compared under the same
    /// machine conditions. In a traced round every request runs once at
    /// each nesting level — over the wire, through `Session::execute`,
    /// then through the SQL and core entry points — and each run is one
    /// span. Returns `(plain, traced, answers of both)`.
    pub fn measure_traced(&mut self, seconds: f64, tracer: &mut Tracer) -> (Phase, Phase, Answers) {
        let mut plain = Phase::with_classes(&CLASSES);
        let mut traced = Phase::with_classes(&CLASSES);
        let mut answers = Answers::new();
        let db = self.served.db.clone();
        let mut session = db.connect();
        session.set_defaults(QueryOptions::new().threads(self.threads));
        let window = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut req = 0u64;
        while req == 0 || start.elapsed() < window {
            for class in 0..CLASSES.len() {
                self.wire_request(class, &mut plain, &mut answers);
            }
            for (class, name) in CLASSES.iter().enumerate() {
                req += 1;
                let answered = tracer.span(req, "server.roundtrip", || {
                    self.wire_request(class, &mut traced, &mut answers)
                });
                let Some(wire_rows) = answered else {
                    continue; // failed on the wire: counted, not replayed
                };
                let sql = self.sql[class].as_str();
                let ok = tracer
                    .span(req, "session.execute", || session.execute(sql))
                    .is_ok_and(|out| out.rows.len() == wire_rows);
                if !ok {
                    traced.fail(format!("{name}: in-process replay disagrees"));
                }
                // Every text repeats, so the session path is a plan-cache
                // hit: normalize + execute, no parse or bind.
                tracer.span(req, "sql.normalize", || nra::sql::normalize::normalize(sql));
                let cat = db.catalog();
                let bound = data::bind(sql, &cat);
                let _budget = nra::engine::exec::set_threads(Some(self.threads));
                let _ = tracer.span(req, "core.execute", || {
                    nra::core::execute(&bound, &cat, Strategy::Auto)
                });
                let decision = tracer.span(req, "core.plan", || nra::core::planner::decide(&bound));
                // Only the single-sort cascade runs the unnesting joins as
                // a separable first phase; the other strategies have no
                // public inner boundary.
                if decision.chosen == Strategy::Optimized && bound.root.is_linear() {
                    let _ = tracer.span(req, "core.unnest_join", || {
                        nra::core::optimize::pipeline::unnest_join_phase(&bound, &cat)
                    });
                }
            }
        }
        plain.wall_s = start.elapsed().as_secs_f64();
        traced.wall_s = plain.wall_s;
        (plain, traced, answers)
    }
}
