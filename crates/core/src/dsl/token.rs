//! Tokenizer for the ease.ml/ci condition grammar (Appendix A.1).

use crate::error::ParseError;
use std::fmt;

/// A lexical token of the condition language.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A variable: `n`, `o`, or `d`.
    Var(char),
    /// The `f1` metric keyword, as in `f1(n)`.
    F1,
    /// The `topk` metric keyword, as in `topk(n, 5)`.
    TopK,
    /// `,` — separates the arguments of `topk(...)`.
    Comma,
    /// A floating-point constant.
    Number(f64),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `+/-`
    PlusMinus,
    /// `/\` — conjunction of clauses.
    And,
    /// `(`
    LParen,
    /// `)`
    RParen,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Var(c) => write!(f, "{c}"),
            Token::F1 => write!(f, "f1"),
            Token::TopK => write!(f, "topk"),
            Token::Comma => write!(f, ","),
            Token::Number(x) => write!(f, "{x}"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Gt => write!(f, ">"),
            Token::Lt => write!(f, "<"),
            Token::PlusMinus => write!(f, "+/-"),
            Token::And => write!(f, "/\\"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
        }
    }
}

/// A token along with the byte offset where it starts, for error messages.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token itself.
    pub token: Token,
    /// Byte offset into the source where the token begins.
    pub offset: usize,
}

/// The most tokens a condition may hold. The parser recurses once per
/// nesting level and every later pass once per expression level, and
/// an expression is never deeper than its token count, so this bounds
/// the stack any condition needs; real conditions hold a few dozen.
pub const MAX_TOKENS: usize = 512;

/// Tokenize a condition string.
///
/// # Errors
///
/// Returns a [`ParseError`] on unknown characters, malformed numbers, a
/// stray `/` that does not begin `/\`, or more than [`MAX_TOKENS`]
/// tokens.
pub fn tokenize(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if out.len() == MAX_TOKENS {
            return Err(ParseError::new(
                i,
                format!("condition is too long: more than {MAX_TOKENS} tokens"),
            ));
        }
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            'a'..='z' | 'A'..='Z' => {
                // Read the whole identifier word, then classify it.
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_alphanumeric() {
                    i += 1;
                }
                let word = &src[start..i];
                let token = match word {
                    "n" | "o" | "d" => Token::Var(word.as_bytes()[0] as char),
                    "f1" => Token::F1,
                    "topk" => Token::TopK,
                    _ => {
                        return Err(ParseError::new(
                            start,
                            format!(
                                "unknown identifier starting with `{c}` \
                                 (variables are n, o, d, f1(...), topk(...))"
                            ),
                        ));
                    }
                };
                out.push(Spanned {
                    token,
                    offset: start,
                });
            }
            ',' => {
                out.push(Spanned {
                    token: Token::Comma,
                    offset: i,
                });
                i += 1;
            }
            '+' => {
                if bytes[i..].starts_with(b"+/-") {
                    out.push(Spanned {
                        token: Token::PlusMinus,
                        offset: i,
                    });
                    i += 3;
                } else {
                    out.push(Spanned {
                        token: Token::Plus,
                        offset: i,
                    });
                    i += 1;
                }
            }
            '-' => {
                out.push(Spanned {
                    token: Token::Minus,
                    offset: i,
                });
                i += 1;
            }
            '*' => {
                out.push(Spanned {
                    token: Token::Star,
                    offset: i,
                });
                i += 1;
            }
            '>' => {
                out.push(Spanned {
                    token: Token::Gt,
                    offset: i,
                });
                i += 1;
            }
            '<' => {
                out.push(Spanned {
                    token: Token::Lt,
                    offset: i,
                });
                i += 1;
            }
            '(' => {
                out.push(Spanned {
                    token: Token::LParen,
                    offset: i,
                });
                i += 1;
            }
            ')' => {
                out.push(Spanned {
                    token: Token::RParen,
                    offset: i,
                });
                i += 1;
            }
            '/' => {
                if bytes[i..].starts_with(b"/\\") {
                    out.push(Spanned {
                        token: Token::And,
                        offset: i,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::new(
                        i,
                        "`/` is not an operator (ratio statistics are unsupported; \
                         did you mean the conjunction `/\\`?)",
                    ));
                }
            }
            '0'..='9' | '.' => {
                let start = i;
                let mut seen_dot = false;
                let mut seen_exp = false;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    match ch {
                        '0'..='9' => i += 1,
                        '.' if !seen_dot && !seen_exp => {
                            seen_dot = true;
                            i += 1;
                        }
                        'e' | 'E' if !seen_exp && i > start => {
                            seen_exp = true;
                            i += 1;
                            if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                                i += 1;
                            }
                        }
                        _ => break,
                    }
                }
                // A second dot directly after the number ("0.5.5") is a
                // malformed literal, not two adjacent numbers.
                if i < bytes.len() && bytes[i] == b'.' {
                    return Err(ParseError::new(
                        start,
                        format!("malformed number `{}`", &src[start..=i]),
                    ));
                }
                let text = &src[start..i];
                let value: f64 = text
                    .parse()
                    .map_err(|_| ParseError::new(start, format!("malformed number `{text}`")))?;
                out.push(Spanned {
                    token: Token::Number(value),
                    offset: start,
                });
            }
            _ => {
                // Every token is ASCII, so `i` is on a character boundary.
                let other = src[i..].chars().next().unwrap_or(c);
                return Err(ParseError::new(
                    i,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn tokenizes_paper_example() {
        let got = toks("n - 1.1 * o > 0.01 +/- 0.01 /\\ d < 0.1 +/- 0.01");
        use Token::*;
        assert_eq!(
            got,
            vec![
                Var('n'),
                Minus,
                Number(1.1),
                Star,
                Var('o'),
                Gt,
                Number(0.01),
                PlusMinus,
                Number(0.01),
                And,
                Var('d'),
                Lt,
                Number(0.1),
                PlusMinus,
                Number(0.01),
            ]
        );
    }

    #[test]
    fn plus_vs_plus_minus() {
        assert_eq!(
            toks("n + o"),
            vec![Token::Var('n'), Token::Plus, Token::Var('o')]
        );
        assert_eq!(toks("+/- 0.5"), vec![Token::PlusMinus, Token::Number(0.5)]);
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(toks("1e-4"), vec![Token::Number(1e-4)]);
        assert_eq!(toks("2.5E2"), vec![Token::Number(250.0)]);
    }

    #[test]
    fn offsets_are_recorded() {
        let spanned = tokenize("n > 0.5 +/- 0.1").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[1].offset, 2);
        assert_eq!(spanned[2].offset, 4);
        assert_eq!(spanned[3].offset, 8);
    }

    #[test]
    fn rejects_unknown_identifier() {
        let err = tokenize("new > 0.5 +/- 0.1").unwrap_err();
        assert!(err.to_string().contains("unknown identifier"));
        let err = tokenize("f2(n) > 0.5 +/- 0.1").unwrap_err();
        assert!(err.to_string().contains("unknown identifier"));
    }

    #[test]
    fn tokenizes_metric_keywords() {
        assert_eq!(
            toks("f1(n) - f1(o)"),
            vec![
                Token::F1,
                Token::LParen,
                Token::Var('n'),
                Token::RParen,
                Token::Minus,
                Token::F1,
                Token::LParen,
                Token::Var('o'),
                Token::RParen,
            ]
        );
        assert_eq!(
            toks("topk(n, 5)"),
            vec![
                Token::TopK,
                Token::LParen,
                Token::Var('n'),
                Token::Comma,
                Token::Number(5.0),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn rejects_division() {
        let err = tokenize("n / o > 0.5 +/- 0.1").unwrap_err();
        assert!(err.to_string().contains("ratio"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("n > 0.5 @").is_err());
        let err = tokenize("n > 0.5 /\\ é < 0.2").unwrap_err();
        assert!(
            err.to_string().contains("unexpected character `é`"),
            "{err}"
        );
        assert!(tokenize("n > 0.5.5").is_err());
    }

    #[test]
    fn parens() {
        assert_eq!(
            toks("(n - o)"),
            vec![
                Token::LParen,
                Token::Var('n'),
                Token::Minus,
                Token::Var('o'),
                Token::RParen
            ]
        );
    }

    #[test]
    fn empty_input_is_empty_token_stream() {
        assert!(tokenize("   ").unwrap().is_empty());
    }
}
