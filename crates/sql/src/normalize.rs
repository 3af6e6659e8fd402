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
//! whitespace outside string literals to a single space and trim the
//! ends. A `'…'` literal is copied verbatim, so `where s = 'a  b'` and
//! `where s = 'a b'` stay different keys. Nothing case-folds and no
//! literals are parameterized — `SELECT` and `select` are different keys,
//! and `where a = 1` / `where a = 2` are different statements. A smarter
//! fingerprint (lowercased keywords, literals replaced by `?`) would raise
//! plan-cache hit rates on ad-hoc traffic, but it would also make the
//! displayed statement lie about what ran; when that trade-off is
//! revisited it must change here, for every consumer at once. The query lifecycle calls [`normalize`] once per
//! statement and hands the same string to all three.

/// Normalize `sql` to its canonical form: outside `'…'` string literals,
/// runs of whitespace (spaces, tabs, newlines — anything
/// `char::is_whitespace`) collapse to one space, and leading/trailing
/// whitespace is trimmed. A literal, `''` escapes included, is copied as
/// written; an unterminated one runs to the end of the text.
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
    // Inside a literal; `''` closes and reopens it, copying both quotes.
    let mut quoted = false;
    for ch in sql.chars() {
        if quoted {
            out.push(ch);
            quoted = ch != '\'';
        } else if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.push(ch);
            last_space = false;
            quoted = ch == '\'';
        }
    }
    if !quoted && out.ends_with(' ') {
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
        for s in [
            "select  a from t",
            "",
            "  x ",
            "a\nb\tc",
            "x 'a  b'  c",
            "'open  ",
        ] {
            assert_eq!(normalize(&normalize(s)), normalize(s));
        }
    }

    #[test]
    fn preserves_case_and_literals() {
        assert_eq!(normalize("SELECT A FROM T"), "SELECT A FROM T");
        assert_eq!(
            normalize("select  'two  spaces'  from t"),
            "select 'two  spaces' from t",
            "whitespace inside a literal is part of its value"
        );
        assert_eq!(normalize("where s = 'a  b'"), "where s = 'a  b'");
        assert_eq!(normalize("where s = 'a b'"), "where s = 'a b'");
    }

    #[test]
    fn escaped_quotes_stay_inside_the_literal() {
        assert_eq!(
            normalize("where s  = 'it''s  x'   and  t = ''"),
            "where s = 'it''s  x' and t = ''"
        );
    }

    #[test]
    fn unterminated_literal_runs_to_the_end() {
        assert_eq!(normalize(" select  'a  b  "), "select 'a  b  ");
        assert_eq!(normalize("select 'a\n\tb"), "select 'a\n\tb");
    }
}
