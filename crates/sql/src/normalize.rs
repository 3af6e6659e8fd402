//! The canonical SQL statement normalizer.
//!
//! One normal form, three consumers: the slow-query log and the query
//! registry display statements in it, and the process-wide plan cache
//! *keys* on it — two textually different spellings of the same
//! statement (indentation, line breaks, trailing whitespace) must map to
//! the same cache entry, and a slow-log record must show exactly the
//! string the plan cache matched on, so operators can paste one into the
//! other.
//!
//! The normal form is deliberately conservative: collapse every run of
//! whitespace to a single space and trim the ends. Nothing
//! case-folds and no literals are parameterized — `SELECT` and `select`
//! are different keys, and `where a = 1` / `where a = 2` are different
//! statements. A smarter fingerprint (lowercased keywords, literals
//! replaced by `?`) would raise plan-cache hit rates on ad-hoc traffic,
//! but it would also make the displayed statement lie about what ran;
//! when that trade-off is revisited it must change here, for every
//! consumer at once. The query lifecycle calls [`normalize`] once per
//! statement and hands the same string to all three.

/// Normalize `sql` to its canonical single-line form: runs of whitespace
/// (spaces, tabs, newlines — anything `char::is_whitespace`) collapse to
/// one space, and leading/trailing whitespace is trimmed.
///
/// ```
/// use nra_sql::normalize::normalize;
/// assert_eq!(
///     normalize("  select *\n\t from   t  "),
///     "select * from t"
/// );
/// ```
pub fn normalize(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut last_space = true;
    for ch in sql.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.push(ch);
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapses_and_trims() {
        assert_eq!(normalize("select 1"), "select 1");
        assert_eq!(normalize("  select\t\t1\r\n"), "select 1");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize(" \n\t "), "");
        assert_eq!(normalize("a  b"), "a b");
    }

    #[test]
    fn idempotent() {
        for s in ["select  a from t", "", "  x ", "a\nb\tc"] {
            assert_eq!(normalize(&normalize(s)), normalize(s));
        }
    }

    #[test]
    fn preserves_case_and_literals() {
        assert_eq!(normalize("SELECT A FROM T"), "SELECT A FROM T");
        assert_eq!(
            normalize("select 'two  spaces'"),
            "select 'two spaces'",
            "string literals are NOT protected — the normal form is \
             display-oriented; keys for literal-sensitive use must quote \
             responsibly"
        );
    }
}
