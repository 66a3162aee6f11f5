//! Recursive-descent parser: one statement per line.
//!
//! [`parse_statement_spanned`] additionally reports where the interesting
//! pieces of each statement sit in the line ([`StmtSpans`]), which is what
//! `fdb-check` diagnostics anchor to. Parse errors carry a `col N:` prefix
//! pointing at the offending token.

use fdb_types::{FdbError, Result, Span};

use crate::ast::{DeriveStep, Statement};
use crate::lexer::{lex, Tok, Token};

/// Byte spans for the salient parts of a parsed statement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StmtSpans {
    /// The leading keyword (`DECLARE`, `INSERT`, …). Zero-width at column 1
    /// for [`Statement::Empty`].
    pub keyword: Span,
    /// The primary function name, when the statement has one.
    pub name: Option<Span>,
    /// Value / type arguments in source order (`x`, `y`, domain, range, …).
    pub args: Vec<Span>,
    /// One span per derivation step (`f`, `g^-1`) for `DERIVE` / `EVAL`.
    pub steps: Vec<Span>,
}

/// A parsed statement together with its source spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpannedStatement {
    /// The statement.
    pub stmt: Statement,
    /// Where its parts sit in the source line.
    pub spans: StmtSpans,
}

/// Parses one line into a [`Statement`], discarding span information.
pub fn parse_statement(line: &str, line_no: u32) -> Result<Statement> {
    parse_statement_spanned(line, line_no).map(|s| s.stmt)
}

/// Parses one line into a [`SpannedStatement`].
pub fn parse_statement_spanned(line: &str, line_no: u32) -> Result<SpannedStatement> {
    let tokens = lex(line, line_no)?;
    Parser {
        tokens,
        pos: 0,
        line: line_no,
        spans: StmtSpans {
            keyword: Span::line_start(line_no),
            ..StmtSpans::default()
        },
    }
    .statement()
}

/// Parses a whole script whose first line is line `first_line` of its
/// source. Blank and comment-only lines are dropped; a line that does
/// not parse surfaces as `(line_no, error)`, so a caller can report it
/// (as `FDB000`) without losing its position.
pub fn parse_script(text: &str, first_line: u32) -> (Vec<SpannedStatement>, Vec<(u32, FdbError)>) {
    let mut stmts = Vec::new();
    let mut errors = Vec::new();
    for (line_no, line) in (first_line..).zip(text.lines()) {
        match parse_statement_spanned(line, line_no) {
            Ok(s) if matches!(s.stmt, Statement::Empty) => {}
            Ok(s) => stmts.push(s),
            Err(e) => errors.push((line_no, e)),
        }
    }
    (stmts, errors)
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
    line: u32,
    spans: StmtSpans,
}

impl Parser {
    /// Column of the token at the cursor (or just past the last token when
    /// the line ended early), for error messages.
    fn col_here(&self) -> u32 {
        match self.tokens.get(self.pos) {
            Some(t) => t.span.col(),
            None => self.tokens.last().map_or(1, |t| t.span.end_col()),
        }
    }

    fn err(&self, message: impl Into<String>) -> FdbError {
        FdbError::Parse {
            line: self.line,
            message: format!("col {}: {}", self.col_here(), message.into()),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Token, what: &str) -> Result<Span> {
        match self.tokens.get(self.pos) {
            Some(got) if &got.token == t => {
                let span = got.span;
                self.pos += 1;
                Ok(span)
            }
            Some(got) => Err(self.err(format!("expected {what}, found {:?}", got.token))),
            None => Err(self.err(format!("expected {what}, found end of line"))),
        }
    }

    /// An identifier or string literal used as a value or name.
    fn ident(&mut self, what: &str) -> Result<(String, Span)> {
        match self.tokens.get(self.pos) {
            Some(Tok {
                token: Token::Ident(s) | Token::Str(s),
                span,
            }) => {
                let out = (s.clone(), *span);
                self.pos += 1;
                Ok(out)
            }
            Some(got) => Err(self.err(format!("expected {what}, found {:?}", got.token))),
            None => Err(self.err(format!("expected {what}, found end of line"))),
        }
    }

    /// A type name: an identifier or a bracketed compound `[a; b]`.
    fn type_name(&mut self) -> Result<(String, Span)> {
        match self.peek() {
            Some(Token::LBracket) => {
                let open = self.expect(&Token::LBracket, "`[`")?;
                let mut parts = vec![self.type_name()?.0];
                while self.peek() == Some(&Token::Semi) {
                    self.next();
                    parts.push(self.type_name()?.0);
                }
                let close = self.expect(&Token::RBracket, "`]`")?;
                Ok((format!("[{}]", parts.join("; ")), open.merge(close)))
            }
            _ => self.ident("type name"),
        }
    }

    fn pair(&mut self) -> Result<((String, Span), (String, Span))> {
        self.expect(&Token::LParen, "`(`")?;
        let x = self.ident("value")?;
        self.expect(&Token::Comma, "`,`")?;
        let y = self.ident("value")?;
        self.expect(&Token::RParen, "`)`")?;
        Ok((x, y))
    }

    fn end(&mut self) -> Result<()> {
        if let Some(t) = self.peek() {
            return Err(self.err(format!("unexpected trailing input: {t:?}")));
        }
        Ok(())
    }

    fn name(&mut self, what: &str) -> Result<String> {
        let (s, span) = self.ident(what)?;
        self.spans.name = Some(span);
        Ok(s)
    }

    fn arg(&mut self, what: &str) -> Result<String> {
        let (s, span) = self.ident(what)?;
        self.spans.args.push(span);
        Ok(s)
    }

    fn arg_pair(&mut self) -> Result<(String, String)> {
        let ((x, xs), (y, ys)) = self.pair()?;
        self.spans.args.push(xs);
        self.spans.args.push(ys);
        Ok((x, y))
    }

    fn statement(mut self) -> Result<SpannedStatement> {
        let Some(first) = self.next() else {
            return Ok(SpannedStatement {
                stmt: Statement::Empty,
                spans: self.spans,
            });
        };
        self.spans.keyword = first.span;
        let keyword = match first.token {
            Token::Ident(s) => s.to_ascii_uppercase(),
            other => return Err(self.err(format!("expected a keyword, found {other:?}"))),
        };
        let stmt = match keyword.as_str() {
            "DECLARE" => {
                let name = self.name("function name")?;
                self.expect(&Token::Colon, "`:`")?;
                let (domain, dspan) = self.type_name()?;
                self.spans.args.push(dspan);
                self.expect(&Token::Arrow, "`->`")?;
                let (range, rspan) = self.type_name()?;
                self.spans.args.push(rspan);
                self.expect(&Token::LParen, "`(`")?;
                let functionality = self.arg("functionality")?;
                self.expect(&Token::RParen, "`)`")?;
                Statement::Declare {
                    name,
                    domain,
                    range,
                    functionality,
                }
            }
            "DERIVE" => {
                let name = self.name("function name")?;
                self.expect(&Token::Equals, "`=`")?;
                let steps = self.derive_steps()?;
                Statement::Derive { name, steps }
            }
            "INSERT" | "INS" => {
                let function = self.name("function name")?;
                let (x, y) = self.arg_pair()?;
                Statement::Insert { function, x, y }
            }
            "DELETE" | "DEL" => {
                let function = self.name("function name")?;
                let (x, y) = self.arg_pair()?;
                Statement::Delete { function, x, y }
            }
            "REPLACE" | "REP" => {
                let function = self.name("function name")?;
                let old = self.arg_pair()?;
                let (with, _) = self.ident("`WITH`")?;
                if !with.eq_ignore_ascii_case("WITH") {
                    return Err(self.err("expected `WITH`"));
                }
                let new = self.arg_pair()?;
                Statement::Replace { function, old, new }
            }
            "QUERY" => {
                let function = self.name("function name")?;
                self.expect(&Token::LParen, "`(`")?;
                let x = self.arg("value")?;
                self.expect(&Token::RParen, "`)`")?;
                Statement::Query { function, x }
            }
            "TRUTH" => {
                let function = self.name("function name")?;
                let (x, y) = self.arg_pair()?;
                Statement::Truth { function, x, y }
            }
            "SHOW" => {
                // `SHOW TRACE [JSON]` / `SHOW SLOW` vs `SHOW <fn>`:
                // like EXPLAIN's PLAN/ANALYZE, TRACE and SLOW are only
                // keywords in exactly those shapes (and `SHOW TRACE`
                // wins over a function literally named `trace`).
                let modifier = |s: &str, m: &str| s.eq_ignore_ascii_case(m);
                match self.peek() {
                    Some(Token::Ident(s)) if modifier(s, "trace") => {
                        self.next();
                        let json = matches!(
                            self.peek(),
                            Some(Token::Ident(s)) if modifier(s, "json")
                        );
                        if json {
                            self.next();
                        }
                        Statement::ShowTrace { json }
                    }
                    Some(Token::Ident(s)) if modifier(s, "slow") => {
                        self.next();
                        Statement::ShowSlow
                    }
                    _ => Statement::Show {
                        function: self.name("function name")?,
                    },
                }
            }
            "DERIVATIONS" => Statement::Derivations {
                function: self.name("function name")?,
            },
            "EVAL" => {
                let x = self.arg("value")?;
                self.expect(&Token::Colon, "`:`")?;
                let steps = self.derive_steps()?;
                Statement::Eval { x, steps }
            }
            "INVERSE" => {
                let function = self.name("function name")?;
                self.expect(&Token::LParen, "`(`")?;
                let y = self.arg("value")?;
                self.expect(&Token::RParen, "`)`")?;
                Statement::Inverse { function, y }
            }
            "DUMP" => match self.peek() {
                // `DUMP TRACE` — flight-recorder dump. Only the bare
                // ident counts; `DUMP "trace"` still writes a script to
                // the file named trace.
                Some(Token::Ident(s))
                    if s.eq_ignore_ascii_case("trace")
                        && self.tokens.get(self.pos + 1).is_none() =>
                {
                    self.next();
                    Statement::DumpTrace
                }
                _ => Statement::Dump {
                    path: self.arg("file path")?,
                },
            },
            "EXPLAIN" => {
                // `EXPLAIN PLAN f(x, y)` / `EXPLAIN ANALYZE f(x, y)` vs
                // plain `EXPLAIN f(x, y)`: PLAN/ANALYZE is only a keyword
                // when a function name follows it, so a function actually
                // called "plan" or "analyze" still works.
                let modifier =
                    |s: &str| s.eq_ignore_ascii_case("plan") || s.eq_ignore_ascii_case("analyze");
                let is_modified = matches!(self.peek(), Some(Token::Ident(s)) if modifier(s))
                    && matches!(
                        self.tokens.get(self.pos + 1).map(|t| &t.token),
                        Some(Token::Ident(_)) | Some(Token::Str(_))
                    );
                if is_modified {
                    let (word, _) = self.ident("PLAN or ANALYZE")?;
                    let function = self.name("function name")?;
                    let (x, y) = self.arg_pair()?;
                    if word.eq_ignore_ascii_case("plan") {
                        Statement::ExplainPlan { function, x, y }
                    } else {
                        Statement::ExplainAnalyze { function, x, y }
                    }
                } else {
                    let function = self.name("function name")?;
                    let (x, y) = self.arg_pair()?;
                    Statement::Explain { function, x, y }
                }
            }
            "SOURCE" => Statement::Source {
                path: self.arg("file path")?,
            },
            "BEGIN" => Statement::Begin,
            "COMMIT" => Statement::Commit,
            "ABORT" => Statement::Abort,
            "ROLLBACK" => match self.peek() {
                // `ROLLBACK TO name` — partial rollback to a savepoint.
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("to") => {
                    self.next();
                    Statement::RollbackTo {
                        name: self.name("savepoint name")?,
                    }
                }
                _ => Statement::Abort,
            },
            "SAVEPOINT" => Statement::Savepoint {
                name: self.name("savepoint name")?,
            },
            "SAVE" => Statement::Save {
                path: self.arg("file path")?,
            },
            "LOAD" => Statement::Load {
                path: self.arg("file path")?,
            },
            "TIMEOUT" => {
                let (arg, _) = self.ident("milliseconds or OFF")?;
                if arg.eq_ignore_ascii_case("OFF") || arg.eq_ignore_ascii_case("NONE") {
                    Statement::Timeout { millis: None }
                } else {
                    let millis = arg.parse::<u64>().map_err(|_| {
                        self.err(format!("expected milliseconds or OFF, found `{arg}`"))
                    })?;
                    Statement::Timeout {
                        millis: Some(millis),
                    }
                }
            }
            "SCHEMA" => Statement::Schema,
            "STATS" => match self.peek() {
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("reset") => {
                    self.next();
                    Statement::StatsReset
                }
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("json") => {
                    self.next();
                    Statement::StatsJson
                }
                _ => Statement::Stats,
            },
            "TRACE" => {
                let (arg, _) = self.ident("ON, OFF, or SLOW")?;
                if arg.eq_ignore_ascii_case("ON") {
                    let sample = match self.peek() {
                        Some(Token::Ident(s)) if s.eq_ignore_ascii_case("sample") => {
                            self.next();
                            let (n, _) = self.ident("sample rate")?;
                            let n = n.parse::<u64>().map_err(|_| {
                                self.err(format!("expected a sample rate, found `{n}`"))
                            })?;
                            if n == 0 {
                                return Err(self.err("sample rate must be at least 1"));
                            }
                            Some(n)
                        }
                        _ => None,
                    };
                    Statement::Trace { on: true, sample }
                } else if arg.eq_ignore_ascii_case("OFF") {
                    Statement::Trace {
                        on: false,
                        sample: None,
                    }
                } else if arg.eq_ignore_ascii_case("SLOW") {
                    let (t, _) = self.ident("milliseconds or OFF")?;
                    if t.eq_ignore_ascii_case("OFF") || t.eq_ignore_ascii_case("NONE") {
                        Statement::TraceSlow { millis: None }
                    } else {
                        let millis = t.parse::<u64>().map_err(|_| {
                            self.err(format!("expected milliseconds or OFF, found `{t}`"))
                        })?;
                        Statement::TraceSlow {
                            millis: Some(millis),
                        }
                    }
                } else {
                    return Err(self.err(format!("expected ON, OFF, or SLOW, found `{arg}`")));
                }
            }
            "RESOLVE" => Statement::Resolve,
            "CHECK" => match self.peek() {
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("json") => {
                    self.next();
                    Statement::Check { json: true }
                }
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("data") => {
                    self.next();
                    Statement::CheckData
                }
                _ => Statement::Check { json: false },
            },
            "DISCOVER" => match self.peek() {
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("json") => {
                    self.next();
                    Statement::Discover { json: true }
                }
                _ => Statement::Discover { json: false },
            },
            "STRICT" => {
                let (arg, _) = self.ident("ON or OFF")?;
                if arg.eq_ignore_ascii_case("ON") {
                    Statement::Strict { on: true }
                } else if arg.eq_ignore_ascii_case("OFF") {
                    Statement::Strict { on: false }
                } else {
                    return Err(self.err(format!("expected ON or OFF, found `{arg}`")));
                }
            }
            "HELP" => Statement::Help,
            "REPLICA" => {
                let (word, _) = self.ident("STATUS")?;
                if !word.eq_ignore_ascii_case("STATUS") {
                    return Err(self.err(format!("expected STATUS, found `{word}`")));
                }
                Statement::ReplicaStatus
            }
            "PROMOTE" => Statement::Promote,
            other => return Err(self.err(format!("unknown statement `{other}`"))),
        };
        self.end()?;
        Ok(SpannedStatement {
            stmt,
            spans: self.spans,
        })
    }

    fn derive_steps(&mut self) -> Result<Vec<DeriveStep>> {
        let mut steps = vec![self.derive_step()?];
        loop {
            match self.peek() {
                Some(Token::Ident(o)) if o.eq_ignore_ascii_case("o") => {
                    self.next();
                    steps.push(self.derive_step()?);
                }
                _ => break,
            }
        }
        Ok(steps)
    }

    fn derive_step(&mut self) -> Result<DeriveStep> {
        let (name, mut span) = self.ident("function name")?;
        let inverse = if self.peek() == Some(&Token::Inverse) {
            if let Some(t) = self.next() {
                span = span.merge(t.span);
            }
            true
        } else {
            false
        };
        self.spans.steps.push(span);
        Ok(DeriveStep { name, inverse })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_declare_with_compound_domain() {
        let s = parse_statement(
            "DECLARE grade: [student; course] -> letter_grade (many-one)",
            1,
        )
        .unwrap();
        assert_eq!(
            s,
            Statement::Declare {
                name: "grade".into(),
                domain: "[student; course]".into(),
                range: "letter_grade".into(),
                functionality: "many-one".into(),
            }
        );
    }

    #[test]
    fn parses_derive_with_inverses() {
        let s = parse_statement("DERIVE lecturer_of = class_list^-1 o teach^-1", 1).unwrap();
        match s {
            Statement::Derive { name, steps } => {
                assert_eq!(name, "lecturer_of");
                assert_eq!(steps.len(), 2);
                assert!(steps.iter().all(|s| s.inverse));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_updates_and_queries() {
        assert_eq!(
            parse_statement("INSERT teach(euclid, math)", 1).unwrap(),
            Statement::Insert {
                function: "teach".into(),
                x: "euclid".into(),
                y: "math".into(),
            }
        );
        assert_eq!(
            parse_statement("del pupil(euclid, john)", 1).unwrap(),
            Statement::Delete {
                function: "pupil".into(),
                x: "euclid".into(),
                y: "john".into(),
            }
        );
        assert_eq!(
            parse_statement("REPLACE teach(a, b) WITH (a, c)", 1).unwrap(),
            Statement::Replace {
                function: "teach".into(),
                old: ("a".into(), "b".into()),
                new: ("a".into(), "c".into()),
            }
        );
        assert_eq!(
            parse_statement("QUERY pupil(euclid)", 1).unwrap(),
            Statement::Query {
                function: "pupil".into(),
                x: "euclid".into(),
            }
        );
        assert_eq!(
            parse_statement("TRUTH pupil(euclid, john)", 1).unwrap(),
            Statement::Truth {
                function: "pupil".into(),
                x: "euclid".into(),
                y: "john".into(),
            }
        );
    }

    #[test]
    fn parses_nullary_statements() {
        assert_eq!(parse_statement("SCHEMA", 1).unwrap(), Statement::Schema);
        assert_eq!(parse_statement("stats", 1).unwrap(), Statement::Stats);
        assert_eq!(parse_statement("Resolve", 1).unwrap(), Statement::Resolve);
        assert_eq!(
            parse_statement("CHECK", 1).unwrap(),
            Statement::Check { json: false }
        );
        assert_eq!(
            parse_statement("CHECK JSON", 1).unwrap(),
            Statement::Check { json: true }
        );
        assert_eq!(
            parse_statement("CHECK DATA", 1).unwrap(),
            Statement::CheckData
        );
        assert_eq!(
            parse_statement("discover", 1).unwrap(),
            Statement::Discover { json: false }
        );
        assert_eq!(
            parse_statement("DISCOVER JSON", 1).unwrap(),
            Statement::Discover { json: true }
        );
        assert_eq!(parse_statement("", 1).unwrap(), Statement::Empty);
        assert_eq!(
            parse_statement("  -- nothing", 1).unwrap(),
            Statement::Empty
        );
    }

    #[test]
    fn parses_strict_toggle() {
        assert_eq!(
            parse_statement("STRICT ON", 1).unwrap(),
            Statement::Strict { on: true }
        );
        assert_eq!(
            parse_statement("strict off", 1).unwrap(),
            Statement::Strict { on: false }
        );
        assert!(parse_statement("STRICT maybe", 1).is_err());
        assert!(parse_statement("STRICT", 1).is_err());
    }

    #[test]
    fn parses_explain_analyze_and_stats_variants() {
        assert_eq!(
            parse_statement("EXPLAIN ANALYZE pupil(euclid, john)", 1).unwrap(),
            Statement::ExplainAnalyze {
                function: "pupil".into(),
                x: "euclid".into(),
                y: "john".into(),
            }
        );
        assert_eq!(
            parse_statement("STATS RESET", 1).unwrap(),
            Statement::StatsReset
        );
        assert_eq!(
            parse_statement("stats json", 1).unwrap(),
            Statement::StatsJson
        );
        // A function literally named "analyze" still explains plainly:
        // ANALYZE is only a modifier when a function name follows it.
        assert_eq!(
            parse_statement("EXPLAIN analyze(a, b)", 1).unwrap(),
            Statement::Explain {
                function: "analyze".into(),
                x: "a".into(),
                y: "b".into(),
            }
        );
    }

    #[test]
    fn parses_transaction_control() {
        assert_eq!(parse_statement("BEGIN", 1).unwrap(), Statement::Begin);
        assert_eq!(parse_statement("COMMIT", 1).unwrap(), Statement::Commit);
        assert_eq!(parse_statement("ABORT", 1).unwrap(), Statement::Abort);
        assert_eq!(parse_statement("rollback", 1).unwrap(), Statement::Abort);
        assert_eq!(
            parse_statement("SAVEPOINT before_grades", 1).unwrap(),
            Statement::Savepoint {
                name: "before_grades".into()
            }
        );
        assert_eq!(
            parse_statement("ROLLBACK TO before_grades", 1).unwrap(),
            Statement::RollbackTo {
                name: "before_grades".into()
            }
        );
        assert!(parse_statement("SAVEPOINT", 1).is_err());
        assert!(parse_statement("ROLLBACK TO", 1).is_err());
        assert!(parse_statement("ROLLBACK TO a b", 1).is_err());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse_statement("SCHEMA extra", 1).is_err());
        assert!(parse_statement("INSERT teach(a, b) c", 1).is_err());
    }

    #[test]
    fn missing_with_is_an_error() {
        assert!(parse_statement("REPLACE f(a, b) (c, d)", 1).is_err());
    }

    #[test]
    fn unknown_keyword_is_an_error() {
        let err = parse_statement("FROBNICATE x", 7).unwrap_err();
        assert!(matches!(err, FdbError::Parse { line: 7, .. }));
    }

    #[test]
    fn errors_carry_columns() {
        // `(` expected at the comma's position (col 16).
        let err = parse_statement("REPLACE f(a, b) WITH", 1).unwrap_err();
        assert!(err.to_string().contains("col"), "got: {err}");
        // End-of-line errors point one past the last token.
        let err = parse_statement("INSERT teach", 1).unwrap_err();
        assert!(err.to_string().contains("col 13"), "got: {err}");
    }

    #[test]
    fn spanned_statement_reports_name_and_args() {
        let s = parse_statement_spanned("INSERT teach(euclid, math)", 3).unwrap();
        assert_eq!(s.spans.keyword, Span::new(3, 0, 6));
        assert_eq!(s.spans.name, Some(Span::new(3, 7, 12)));
        assert_eq!(
            s.spans.args,
            vec![Span::new(3, 13, 19), Span::new(3, 21, 25)]
        );
        assert!(s.spans.steps.is_empty());
    }

    #[test]
    fn spanned_declare_reports_name_and_functionality_spans() {
        let s = parse_statement_spanned("DECLARE teach: faculty -> course (many-many)", 1).unwrap();
        assert_eq!(s.spans.name, Some(Span::new(1, 8, 13)));
        // Domain, range, then the functionality the analyzer anchors at.
        assert_eq!(
            s.spans.args,
            vec![
                Span::new(1, 15, 22),
                Span::new(1, 26, 32),
                Span::new(1, 34, 43)
            ]
        );
    }

    #[test]
    fn parse_script_collects_statements_and_errors() {
        let (stmts, errors) = parse_script(
            "DECLARE teach: faculty -> course (many-many)\n\
             -- comment only\n\
             NOT A STATEMENT\n\
             INSERT teach(euclid, math)\n",
            1,
        );
        assert_eq!(stmts.len(), 2);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, 3);
        // Numbered from `first_line`, spans included.
        let (stmts, errors) = parse_script("\nINSERT teach(euclid, math)\nBOGUS", 10);
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].spans.keyword, Span::new(11, 0, 6));
        assert_eq!(errors[0].0, 12);
    }

    #[test]
    fn spanned_derive_reports_step_spans() {
        let s = parse_statement_spanned("DERIVE p = teach o class_list", 2).unwrap();
        assert_eq!(s.spans.name, Some(Span::new(2, 7, 8)));
        assert_eq!(
            s.spans.steps,
            vec![Span::new(2, 11, 16), Span::new(2, 19, 29)]
        );
        // An inverse marker extends the step span.
        let s = parse_statement_spanned("DERIVE q = teach^-1", 2).unwrap();
        assert_eq!(s.spans.steps, vec![Span::new(2, 11, 19)]);
    }

    #[test]
    fn parses_trace_statements() {
        assert_eq!(
            parse_statement("TRACE ON", 1).unwrap(),
            Statement::Trace {
                on: true,
                sample: None
            }
        );
        assert_eq!(
            parse_statement("trace on sample 32", 1).unwrap(),
            Statement::Trace {
                on: true,
                sample: Some(32)
            }
        );
        assert_eq!(
            parse_statement("TRACE OFF", 1).unwrap(),
            Statement::Trace {
                on: false,
                sample: None
            }
        );
        assert!(parse_statement("TRACE ON SAMPLE 0", 1).is_err());
        assert_eq!(
            parse_statement("TRACE SLOW 250", 1).unwrap(),
            Statement::TraceSlow { millis: Some(250) }
        );
        assert_eq!(
            parse_statement("TRACE SLOW OFF", 1).unwrap(),
            Statement::TraceSlow { millis: None }
        );
        assert_eq!(
            parse_statement("SHOW TRACE", 1).unwrap(),
            Statement::ShowTrace { json: false }
        );
        assert_eq!(
            parse_statement("SHOW TRACE JSON", 1).unwrap(),
            Statement::ShowTrace { json: true }
        );
        assert_eq!(
            parse_statement("SHOW SLOW", 1).unwrap(),
            Statement::ShowSlow
        );
        assert_eq!(
            parse_statement("DUMP TRACE", 1).unwrap(),
            Statement::DumpTrace
        );
        // `SHOW trace` names the keyword, not a function called trace —
        // but a quoted name still reaches the file-dump statement.
        assert!(matches!(
            parse_statement("DUMP \"trace\"", 1).unwrap(),
            Statement::Dump { .. }
        ));
    }

    #[test]
    fn quoted_values() {
        let s = parse_statement(r#"INSERT teach("Dr. Euclid", math)"#, 1).unwrap();
        assert_eq!(
            s,
            Statement::Insert {
                function: "teach".into(),
                x: "Dr. Euclid".into(),
                y: "math".into(),
            }
        );
    }
}
