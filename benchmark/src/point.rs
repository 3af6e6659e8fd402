//! `point_floor`: two closed-loop callers sending the paper's Query Q over
//! the 5-row `r/s/t` tables (loaded beside TPC-H).
//!
//! Operator work is a small part of such a request; the rest is the fixed
//! per-query path (normalize, plan cache, parse, bind, plan, lifecycle,
//! admission, catalog lock). 90% of requests draw from [`HOT_TEXTS`]
//! pre-warmed texts that fit the 256-entry plan cache; 10% carry a literal
//! never sent before, so they miss and push FIFO eviction through the
//! cache. Requests are classified by what the generator sent.
//!
//! The end-to-end run calls `Session::execute` from two threads — the
//! embedded API, the same call a server connection makes. Over loopback
//! TCP this sandbox's wake-up and scheduling costs are half of a ~100 µs
//! round trip and move by ±15% from one second to the next, which would
//! bury the engine's part; the wire is measured in the traced run
//! (`server.wire_us`, `wire.hit_p50_ms`, the `server.roundtrip` span).

use std::io;
use std::time::{Duration, Instant};

use nra::core::Strategy;
use nra::storage::rng::Pcg32;
use nra::tpch::paper_example::{self, QUERY_Q};
use nra::{Database, Session};

use crate::common::{Phase, Served};
use crate::data::{self, Expected};
use crate::trace::Tracer;
use crate::wire::{Frame, WireClient};

pub const CLIENTS: usize = 2;
pub const HOT_TEXTS: usize = 64;
const MISS_SHARE: f64 = 0.10;
pub const POINT_CLASSES: [&str; 2] = ["hit", "miss"];

/// Distinct `r.a > k` constants; each gives a different answer (2, 2, 1,
/// 1 rows on the example instance), so a response is checked against the
/// answer of *its* text.
const K_VARIANTS: usize = 4;

/// Query Q with the outer block's constant set to `k` and one extra
/// always-true conjunct `r.d < lit` (`r.d` is 1..=4) that makes the text
/// unique without changing its answer.
pub fn query_text(k: usize, lit: u64) -> String {
    let text = QUERY_Q.replacen("r.a > 1", &format!("r.a > {k} and r.d < {lit}"), 1);
    assert_ne!(text, QUERY_Q, "Query Q no longer contains `r.a > 1`");
    text
}

fn hot_text(j: usize) -> String {
    query_text(j % K_VARIANTS, 1_000 + j as u64)
}

/// Literals for never-seen texts: disjoint ranges per client and per
/// nesting level of the traced replay.
fn miss_literal(client: usize, level: u64, n: u64) -> u64 {
    1_000_000 + (client as u64 * 4 + level) * 100_000_000 + n
}

/// Expected answer per `k`, from `Strategy::Original` in-process on the
/// example tables; the paper's own text (`k = 1`) must also give the
/// hand-derived answer.
pub fn oracle() -> Result<Vec<Expected>, String> {
    let cat = paper_example::rst_catalog();
    let expected: Vec<Expected> = (0..K_VARIANTS)
        .map(|k| data::expected_answer(&query_text(k, 1_000), &cat))
        .collect();
    let golden = paper_example::expected_query_q_result();
    let rel = nra::core::execute(&data::bind(QUERY_Q, &cat), &cat, Strategy::Original)
        .map_err(|e| e.to_string())?;
    let mut got = rel.rows().to_vec();
    got.sort_by(|a, b| nra::storage::tuple::cmp_on(a, b, &[0, 1, 2]));
    if got != golden || expected[1].rows != golden.len() {
        return Err("Query Q's answer differs from the paper's hand-derived one".into());
    }
    Ok(expected)
}

pub struct Point {
    pub db: Database,
    /// Never-seen texts sent so far, per client: literals stay unique
    /// across the phases of one run.
    sent_misses: Vec<u64>,
}

/// Generate and load the data and send every hot text once (fills the
/// plan cache).
pub fn setup(seed: u64, scale: f64) -> io::Result<Point> {
    let mut cat = data::tpch_catalog(scale, seed);
    let rst = paper_example::rst_catalog();
    for name in rst.table_names() {
        let table = rst.table(name).expect("listed table exists").clone();
        cat.add_table(table).expect("r/s/t do not clash with TPC-H");
    }
    let db = Database::from_catalog(cat);
    let session = db.connect();
    for j in 0..HOT_TEXTS {
        session.execute(&hot_text(j)).map_err(io::Error::other)?;
    }
    Ok(Point {
        db,
        sent_misses: vec![0; CLIENTS],
    })
}

/// How a measured phase reaches the engine.
#[derive(Clone, Copy)]
pub enum Via<'a> {
    /// `Session::execute` on the calling thread.
    Session,
    /// The line protocol over loopback TCP to the same database, served.
    Wire(&'a Served),
    /// The wire, with every request replayed in-process at each nesting
    /// level as spans since the given epoch.
    WireTraced(&'a Served, Instant),
}

/// One caller's way in.
enum Link {
    Session(Session),
    Wire(WireClient),
}

impl Link {
    /// Send `text`; the answer's row count and, when asked, row digest.
    fn ask(&mut self, text: &str, want_digest: bool) -> Result<(usize, Option<u64>), String> {
        match self {
            Link::Session(session) => {
                let out = session.execute(text).map_err(|e| e.to_string())?;
                let digest = want_digest.then(|| data::digest_relation(&out.rows).digest);
                Ok((out.rows.len(), digest))
            }
            Link::Wire(client) => match client.request(text, want_digest) {
                Ok(Frame::Ok { rows, digest, .. }) => Ok((rows, digest)),
                Ok(Frame::Err(e)) => Err(format!("err frame: {e}")),
                Err(e) => Err(format!("transport: {e}")),
            },
        }
    }
}

/// One caller's request stream and answer checking.
struct Driver<'a> {
    link: Link,
    id: usize,
    rng: Pcg32,
    sent_misses: &'a mut u64,
    expected: &'a [Expected],
    digest_checked: [bool; 2],
}

impl Driver<'_> {
    /// Draw the next request: `(class index, k, text)`.
    fn next(&mut self) -> (usize, usize, String) {
        if self.rng.bool(MISS_SHARE) {
            let k = self.rng.index(K_VARIANTS);
            *self.sent_misses += 1;
            (
                1,
                k,
                query_text(k, miss_literal(self.id, 0, *self.sent_misses)),
            )
        } else {
            let j = self.rng.index(HOT_TEXTS);
            (0, j % K_VARIANTS, hot_text(j))
        }
    }

    /// Send `text`, time it, check the answer (digest on the first
    /// response of each class). Returns whether it was correct.
    fn send(&mut self, class: usize, k: usize, text: &str, phase: &mut Phase) -> bool {
        let want_digest = !self.digest_checked[class];
        let start = Instant::now();
        let answer = self.link.ask(text, want_digest);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        phase.attempted += 1;
        let exp = &self.expected[k];
        let name = POINT_CLASSES[class];
        match answer {
            Ok((rows, _)) if rows != exp.rows => {
                phase.fail(format!("{name} k={k}: {rows} rows, expected {}", exp.rows))
            }
            Ok((_, Some(digest))) if digest != exp.digest => phase.fail(format!(
                "{name} k={k}: row digest differs from the oracle's"
            )),
            Ok(_) => {
                self.digest_checked[class] |= want_digest;
                phase.classes[class].1.push(ms);
                return true;
            }
            Err(e) => phase.fail(format!("{name}: {e}")),
        }
        false
    }
}

impl Point {
    /// The first `clients` callers send until `seconds` have passed, each
    /// on a thread of its own. Returns the callers' span buffers too
    /// (empty unless traced).
    pub fn measure(
        &mut self,
        seed: u64,
        seconds: f64,
        expected: &[Expected],
        clients: usize,
        via: Via<'_>,
    ) -> io::Result<(Phase, Vec<Tracer>)> {
        let window = Duration::from_secs_f64(seconds);
        let db = &self.db;
        let links = (0..clients)
            .map(|_| match via {
                Via::Session => Ok(Link::Session(db.connect())),
                Via::Wire(s) | Via::WireTraced(s, _) => WireClient::connect(s.addr).map(Link::Wire),
            })
            .collect::<io::Result<Vec<Link>>>()?;
        let results: Vec<(Phase, Option<Tracer>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = links
                .into_iter()
                .zip(&mut self.sent_misses)
                .enumerate()
                .map(|(id, (link, sent_misses))| {
                    scope.spawn(move || {
                        let mut driver = Driver {
                            link,
                            id,
                            rng: Pcg32::new(seed.wrapping_mul(CLIENTS as u64 + 1) + id as u64),
                            sent_misses,
                            expected,
                            digest_checked: [false; 2],
                        };
                        match via {
                            Via::WireTraced(_, epoch) => {
                                let mut tracer = Tracer::new(epoch);
                                let phase = run_traced(&mut driver, window, db, &mut tracer);
                                (phase, Some(tracer))
                            }
                            _ => (run_plain(&mut driver, window), None),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        let mut phase = Phase::with_classes(&POINT_CLASSES);
        let mut tracers = Vec::new();
        for (p, t) in results {
            phase.absorb(p);
            tracers.extend(t);
        }
        Ok((phase, tracers))
    }
}

fn run_plain(driver: &mut Driver<'_>, window: Duration) -> Phase {
    let mut phase = Phase::with_classes(&POINT_CLASSES);
    let start = Instant::now();
    while start.elapsed() < window {
        let (class, k, text) = driver.next();
        driver.send(class, k, &text, &mut phase);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

fn run_traced(
    driver: &mut Driver<'_>,
    window: Duration,
    db: &Database,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase::with_classes(&POINT_CLASSES);
    let session = db.connect();
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < window {
        n += 1;
        let (class, k, text) = driver.next();
        // Request ids are unique across clients and carry the class in
        // their lowest bit.
        let req = (n * CLIENTS as u64 + driver.id as u64) * 2 + class as u64;
        let ok = tracer.span(req, "server.roundtrip", || {
            driver.send(class, k, &text, &mut phase)
        });
        if !ok {
            continue;
        }
        let miss = class == 1;
        // The wire request has just cached a miss text, so the session
        // level replays a miss with a never-seen literal of its own.
        let replay = if miss {
            query_text(k, miss_literal(driver.id, 1, n))
        } else {
            text
        };
        let rows = tracer
            .span(req, "session.execute", || session.execute(&replay))
            .map(|out| out.rows.len());
        if rows != Ok(driver.expected[k].rows) {
            phase.fail(format!("k={k}: in-process replay disagrees"));
        }
        tracer.span(req, "sql.normalize", || {
            nra::sql::normalize::normalize(&replay)
        });
        let cat = db.catalog();
        let bound = if miss {
            // A miss parses and binds; a hit reuses the cached plan.
            let query = tracer
                .span(req, "sql.parse", || nra::sql::parse_query(&replay))
                .expect("generated text parses");
            tracer
                .span(req, "sql.bind", || nra::sql::bind(&query.first, &cat))
                .expect("generated text binds")
        } else {
            data::bind(&replay, &cat)
        };
        let _ = tracer.span(req, "core.execute", || {
            nra::core::execute(&bound, &cat, Strategy::Auto)
        });
        tracer.span(req, "core.plan", || nra::core::planner::decide(&bound));
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}
