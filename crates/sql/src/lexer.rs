//! Hand-written lexer for the SQL subset.

use crate::error::SqlError;
use crate::token::{Keyword, Token, TokenKind};

/// Tokenize `input` into a vector ending with an `Eof` token.
pub fn lex(input: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;

    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            c if c.is_ascii_whitespace() => {
                i += 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    offset: start,
                });
                i += 1;
            }
            ';' => {
                tokens.push(Token {
                    kind: TokenKind::Semicolon,
                    offset: start,
                });
                i += 1;
            }
            '+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    offset: start,
                });
                i += 1;
            }
            '-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    offset: start,
                });
                i += 1;
            }
            '*' => {
                tokens.push(Token {
                    kind: TokenKind::StarOp,
                    offset: start,
                });
                i += 1;
            }
            '/' => {
                tokens.push(Token {
                    kind: TokenKind::Slash,
                    offset: start,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: start,
                });
                i += 1;
            }
            '<' => {
                i += 1;
                let kind = if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    TokenKind::LtEq
                } else if i < bytes.len() && bytes[i] == b'>' {
                    i += 1;
                    TokenKind::NotEq
                } else {
                    TokenKind::Lt
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
            }
            '>' => {
                i += 1;
                let kind = if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    TokenKind::GtEq
                } else {
                    TokenKind::Gt
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
            }
            '!' => {
                i += 1;
                if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    tokens.push(Token {
                        kind: TokenKind::NotEq,
                        offset: start,
                    });
                } else {
                    return Err(SqlError::lex(start, "expected `=` after `!`"));
                }
            }
            '\'' => {
                i += 1;
                let mut s = String::new();
                // Copy whole runs of the input up to each quote, so a
                // multi-byte character stays one `char`.
                loop {
                    let Some(run) = input[i..].find('\'') else {
                        return Err(SqlError::lex(start, "unterminated string literal"));
                    };
                    s.push_str(&input[i..i + run]);
                    i += run + 1;
                    // doubled quote is an escaped quote
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    offset: start,
                });
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                if j < bytes.len()
                    && bytes[j] == b'.'
                    && j + 1 < bytes.len()
                    && (bytes[j + 1] as char).is_ascii_digit()
                {
                    // decimal literal with up to two significant fraction digits
                    let int_part: i64 = input[i..j]
                        .parse()
                        .map_err(|_| SqlError::lex(start, "integer literal out of range"))?;
                    let mut k = j + 1;
                    while k < bytes.len() && (bytes[k] as char).is_ascii_digit() {
                        k += 1;
                    }
                    let frac_str = &input[j + 1..k];
                    if frac_str.len() > 2 {
                        return Err(SqlError::lex(
                            start,
                            "decimal literals support at most two fraction digits",
                        ));
                    }
                    let mut frac: i64 = frac_str
                        .parse()
                        .map_err(|_| SqlError::lex(start, "bad decimal literal"))?;
                    if frac_str.len() == 1 {
                        frac *= 10;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Decimal(int_part * 100 + frac),
                        offset: start,
                    });
                    i = k;
                } else {
                    let v: i64 = input[i..j]
                        .parse()
                        .map_err(|_| SqlError::lex(start, "integer literal out of range"))?;
                    tokens.push(Token {
                        kind: TokenKind::Int(v),
                        offset: start,
                    });
                    i = j;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                let word = &input[i..j];
                let kind = match Keyword::parse(word) {
                    Some(k) => TokenKind::Keyword(k),
                    None => TokenKind::Ident(word.to_ascii_lowercase()),
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
                i = j;
            }
            other => {
                // `other` is one byte; name the whole character.
                let other = input[i..].chars().next().unwrap_or(other);
                return Err(SqlError::lex(
                    start,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: input.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("SeLeCt from"),
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Keyword(Keyword::From),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("= <> != < <= > >="),
            vec![
                TokenKind::Eq,
                TokenKind::NotEq,
                TokenKind::NotEq,
                TokenKind::Lt,
                TokenKind::LtEq,
                TokenKind::Gt,
                TokenKind::GtEq,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 12.5 3.07"),
            vec![
                TokenKind::Int(42),
                TokenKind::Decimal(1250),
                TokenKind::Decimal(307),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn too_many_fraction_digits_rejected() {
        assert!(lex("1.234").is_err());
    }

    #[test]
    fn strings_with_escaped_quote() {
        assert_eq!(
            kinds("'it''s'"),
            vec![TokenKind::Str("it's".into()), TokenKind::Eof]
        );
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn strings_keep_multibyte_characters() {
        assert_eq!(
            kinds("'café' 'ü''ñ'"),
            vec![
                TokenKind::Str("café".into()),
                TokenKind::Str("ü'ñ".into()),
                TokenKind::Eof
            ]
        );
        assert!(lex("'naïve").is_err());
    }

    #[test]
    fn qualified_identifier() {
        assert_eq!(
            kinds("r.b"),
            vec![
                TokenKind::Ident("r".into()),
                TokenKind::Dot,
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("select -- comment here\n 1"),
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Int(1),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn identifiers_lowercased() {
        assert_eq!(
            kinds("Orders"),
            vec![TokenKind::Ident("orders".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn unexpected_character_errors() {
        assert!(lex("select @").is_err());
        assert!(lex("select !x").is_err());
        let err = lex("select é").unwrap_err().to_string();
        assert!(err.contains("unexpected character `é`"), "{err}");
    }
}
