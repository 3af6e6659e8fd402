//! Property tests for the SQL front end: the parser must never panic, and
//! parse → display → parse must be a fixpoint. Formerly proptest; now
//! seeded-deterministic fuzzing so the suite runs with no external crates.

use nra_sql::{parse, parse_query};
use nra_storage::rng::Pcg32;

/// Arbitrary byte soup: the parser returns Ok or Err, never panics.
#[test]
fn parser_never_panics_on_garbage() {
    let mut rng = Pcg32::new(0x5eed_1001);
    for _ in 0..512 {
        let len = rng.index(64);
        let input: String = (0..len)
            .map(|_| {
                // Mix printable ASCII with arbitrary unicode scalars.
                if rng.bool(0.8) {
                    rng.range_i64(0x20, 0x7f) as u8 as char
                } else {
                    char::from_u32(rng.range_i64(0, 0xd800) as u32).unwrap_or('\u{fffd}')
                }
            })
            .collect();
        let _ = parse(&input);
    }
}

/// SQL-ish token soup: higher hit rate on deep parser paths.
#[test]
fn parser_never_panics_on_sqlish() {
    const TOKENS: [&str; 31] = [
        "select", "from", "where", "and", "or", "not", "in", "exists", "all", "any", "some",
        "between", "is", "null", "count", "max", "(", ")", ",", ".", "*", "=", "<>", "<", ">",
        "<=", ">=", "a", "b", "t", "1",
    ];
    let mut rng = Pcg32::new(0x5eed_1002);
    for _ in 0..512 {
        let len = rng.index(24);
        let tokens: Vec<&str> = (0..len).map(|_| *rng.choose(&TOKENS)).collect();
        let input = tokens.join(" ");
        let _ = parse(&input);
    }
}

/// Display output reparses to the same AST (idempotence on a corpus of
/// valid queries covering the whole grammar).
#[test]
fn display_roundtrip_corpus() {
    let corpus = [
        "select a from t",
        "select distinct a, b from t, u where t.x = u.y",
        "select * from t where a between 1 and 2 or b is not null",
        "select a from t where not (a = 1 and b in (1, 2, 3))",
        "select a from t where exists (select * from u where u.x = t.a)",
        "select a from t where a not in (select b from u)",
        "select a from t where a > all (select b from u where exists \
         (select * from v where v.k = u.b))",
        "select a from t where a + b * 2 - 1 > 0",
        "select a from t where a > (select max(b) from u where u.x = t.a)",
        "select a from t where 0 = (select count(*) from u)",
        "select a from t where a < (select avg(b) from u) and b >= \
         (select sum(c) from v)",
        "select a from t where d = date '1995-06-17'",
        "select a from t where s = 'it''s'",
    ];
    for input in corpus {
        let once = parse(input).unwrap_or_else(|e| panic!("corpus entry failed: {input}: {e}"));
        let rendered = once.to_string();
        let twice =
            parse(&rendered).unwrap_or_else(|e| panic!("rendered form failed: {rendered}: {e}"));
        assert_eq!(once, twice, "display not a fixpoint for {input}");
    }
}

/// Nesting past the parser's depth limit is a parse error, not a stack
/// overflow that aborts the process: deep parentheses (around predicates
/// and around expressions), `NOT` and unary minus chains, and nested
/// subqueries each return `Err`; moderate nesting still parses.
#[test]
fn deep_nesting_is_an_error_not_a_crash() {
    let nest = |open: &str, inner: &str, close: &str, n: usize| {
        format!(
            "select a from r where {}{inner}{}",
            open.repeat(n),
            close.repeat(n)
        )
    };
    let deep = 100_000;
    for sql in [
        nest("(", "a = 1", ")", deep),
        nest("not ", "a = 1", "", deep),
        nest("a in (select a from r where ", "a = 1", ")", 10_000),
        nest("a = ", "", "", 1) + &"(".repeat(deep) + "1" + &")".repeat(deep),
        nest("a = ", "", "", 1) + &"- ".repeat(deep) + "1",
        nest("a = ", "", "", 1) + &"max(".repeat(deep) + "a" + &")".repeat(deep),
    ] {
        let err = parse_query(&sql).expect_err("nesting past the limit");
        assert!(err.to_string().contains("nests deeper than"), "{err}");
    }
    for sql in [
        nest("(", "a = 1", ")", 20),
        nest("not ", "a = 1", "", 20),
        nest("a in (select a from r where ", "a = 1", ")", 10),
    ] {
        parse_query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}
