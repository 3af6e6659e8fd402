//! End-to-end protocol tests: a real listener on an ephemeral port,
//! real client sockets, concurrent connections, clean shutdown.

use nra::engine::exec;
use nra::obs::{OpStats, Profile};
use nra::storage::{Column, ColumnType, Value};
use nra::tpch::gen::{generate, TpchConfig};
use nra::tpch::paper_example::{rst_catalog, QUERY_Q};
use nra::tpch::queries::{q2_sql, Quant};
use nra::{Database, QueryOptions};
use nra_server::{serve, Client};

fn seeded_db() -> Database {
    let db = Database::new();
    db.create_table(
        "t",
        vec![
            Column::not_null("k", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ],
        &["k"],
    )
    .unwrap();
    db.insert(
        "t",
        (0..100)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
            .collect(),
    )
    .unwrap();
    db
}

#[test]
fn ping_query_and_quit() {
    let handle = serve(seeded_db(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let pong = client.query(".ping").unwrap();
    assert_eq!(pong.rows.len(), 0);

    let out = client.query("select k from t where k < 3").unwrap();
    assert_eq!(out.columns, vec!["t.k"], "projection headers are qualified");
    assert_eq!(out.rows.len(), 3);
    assert_eq!(out.rows[0], vec!["0"]);

    let bye = client.query(".quit").unwrap();
    assert_eq!(bye.rows.len(), 0);
    handle.shutdown();
}

#[test]
fn session_ids_are_distinct_per_connection() {
    let handle = serve(seeded_db(), "127.0.0.1:0").unwrap();
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    let ida = a.query(".session").unwrap().rows[0][0].clone();
    let idb = b.query(".session").unwrap().rows[0][0].clone();
    assert_ne!(ida, idb, "each connection gets its own session");
    assert_ne!(ida, "0", "server sessions are never the one-shot id");
    handle.shutdown();
}

#[test]
fn errors_are_framed_not_fatal() {
    let handle = serve(seeded_db(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let err = client.query("select nope from nowhere").unwrap_err();
    assert!(err.starts_with("sql:"), "{err}");

    let err = client.query(".set bogus 1").unwrap_err();
    assert!(err.starts_with("protocol:"), "{err}");

    // The connection survives an error.
    let out = client.query("select k from t where k = 1").unwrap();
    assert_eq!(out.rows.len(), 1);
    handle.shutdown();
}

#[test]
fn set_prepare_exec_roundtrip() {
    let handle = serve(seeded_db(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    client.query(".set engine original").unwrap();
    client
        .query(".prepare low select k from t where k < 5")
        .unwrap();
    let out = client.query(".exec low").unwrap();
    assert_eq!(out.rows.len(), 5);

    let err = client.query(".exec missing").unwrap_err();
    assert!(err.contains("missing"), "{err}");

    // Prepared statements fail validation at prepare time.
    let err = client
        .query(".prepare bad select x from nowhere")
        .unwrap_err();
    assert!(err.starts_with("sql:"), "{err}");
    handle.shutdown();
}

#[test]
fn string_values_roundtrip_escaping() {
    let db = Database::new();
    db.create_table(
        "s",
        vec![
            Column::not_null("k", ColumnType::Int),
            Column::new("txt", ColumnType::Str),
        ],
        &["k"],
    )
    .unwrap();
    db.insert(
        "s",
        vec![vec![
            Value::Int(1),
            Value::Str("tab\there\nand line".into()),
        ]],
    )
    .unwrap();
    let handle = serve(db, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let out = client.query("select txt from s").unwrap();
    assert_eq!(out.rows[0][0], "'tab\there\nand line'");
    handle.shutdown();
}

#[test]
fn eight_concurrent_clients_agree() {
    let db = seeded_db();
    let expected = db
        .connect()
        .execute("select k from t where v = 3")
        .unwrap()
        .rows
        .len();
    let handle = serve(db, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let workers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rows = 0;
                for _ in 0..20 {
                    rows = client
                        .query("select k from t where v = 3")
                        .unwrap()
                        .rows
                        .len();
                }
                rows
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().unwrap(), expected);
    }
    handle.shutdown();
}

#[test]
fn shutdown_is_clean_and_idempotent_for_new_connects() {
    let handle = serve(seeded_db(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.query("select k from t where k = 0").unwrap();
    handle.shutdown();
    // After shutdown the listener is gone: either the connect fails or
    // the socket is closed without a response frame.
    if let Ok(mut c) = Client::connect(addr) {
        assert!(c.query(".ping").is_err(), "server still answering");
    }
}

/// A profile's counters with the wall times zeroed: everything that must
/// not depend on how the query was scheduled.
fn counters(profile: Profile) -> Vec<(String, OpStats)> {
    profile
        .ops
        .into_iter()
        .map(|(name, stats)| {
            (
                name,
                OpStats {
                    wall_ns: 0,
                    ..stats
                },
            )
        })
        .collect()
}

/// The thread settings `benchmark/` still sends — `.set threads N` on the
/// wire, `QueryOptions::threads` and `exec::set_threads` — are accepted
/// and ignored: every query runs sequentially, so each form returns the
/// default run's rows and profile counters byte for byte.
#[test]
fn thread_settings_are_accepted_and_ignored() {
    let tpch = generate(&TpchConfig::tiny());
    let q2 = q2_sql(&tpch, Quant::All, 200, 400);
    for (cat, sql) in [(rst_catalog(), QUERY_Q.to_string()), (tpch, q2)] {
        let db = Database::from_catalog(cat);
        let profiled = QueryOptions::new().collect_profile(true);
        let run = |opts: &QueryOptions| {
            let out = db.connect().execute_with(&sql, opts).unwrap();
            (out.rows, counters(out.profile.unwrap()))
        };
        let default = run(&profiled);
        assert!(!default.0.is_empty(), "{sql}");
        assert_eq!(run(&profiled.clone().threads(4)), default);
        {
            let _ambient = exec::set_threads(Some(4));
            assert_eq!(run(&profiled), default);
        }

        let handle = serve(db.clone(), "127.0.0.1:0").unwrap();
        let mut plain = Client::connect(handle.addr()).unwrap();
        let mut two = Client::connect(handle.addr()).unwrap();
        two.query(".set threads 2").unwrap();
        let wire = plain.query(&sql).unwrap();
        assert_eq!(wire.rows.len(), default.0.len());
        assert_eq!(two.query(&sql).unwrap().rows, wire.rows);
        // A value that is not a count is still refused.
        let err = two.query(".set threads four").unwrap_err();
        assert!(err.starts_with("protocol:"), "{err}");
        handle.shutdown();
    }
}

/// A request line over the server's cap (1 MiB) is answered with one
/// `err` frame and the connection is closed; the server keeps serving
/// other connections. A one-line nesting bomb is a parse error, not a
/// crash.
#[test]
fn oversized_and_deeply_nested_lines_are_refused() {
    use std::io::{Read, Write};

    let handle = serve(Database::from_catalog(rst_catalog()), "127.0.0.1:0").unwrap();
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    // A server that buffers without limit never answers: fail, not hang.
    raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    raw.write_all(&vec![b'x'; (1 << 20) + 1]).unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert_eq!(
        reply, "err protocol: request line longer than 1048576 bytes\n.\n",
        "one err frame, then EOF"
    );

    let mut client = Client::connect(handle.addr()).unwrap();
    let deep = format!(
        "select a from r where {}a = 1{}",
        "(".repeat(300),
        ")".repeat(300)
    );
    let err = client.query(&deep).unwrap_err();
    assert!(
        err.starts_with("sql:") && err.contains("nests deeper"),
        "{err}"
    );
    assert_eq!(client.query(QUERY_Q).unwrap().rows.len(), 2);
    handle.shutdown();
}
