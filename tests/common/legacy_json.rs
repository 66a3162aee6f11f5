//! A log record's JSON as earlier versions wrote it (a v1 line, or a
//! JSON frame payload), laid out by hand: `LogRecord` has no serde impl,
//! and a test must not write its input with the code that reads it.
//! `tests/legacy_log.rs` checks this writer against
//! `tests/fixtures/legacy/records.jsonl`, which the last version with
//! the serde derive recorded.
//!
//! The file is compiled into the integration tests (as `common::legacy_json`)
//! and into `fdb-core`'s unit tests (from `wal/legacy.rs`); the module that
//! declares it has `LogRecord` and `Value` in scope.

use super::{LogRecord, Value};

/// `record` as one JSON object, without a line break.
pub fn to_json(record: &LogRecord) -> String {
    let s = |text: &str| {
        serde_json::to_string(&serde::Content::Str(text.to_owned())).expect("a string serialises")
    };
    let v = |value: &Value| match value {
        Value::Atom(atom) => format!("{{\"Atom\":{}}}", s(atom.as_str())),
        Value::Null(null) => format!("{{\"Null\":{}}}", null.0),
    };
    let update = |function: &str, x: &Value, y: &Value| {
        format!(
            "{{\"function\":{},\"x\":{},\"y\":{}}}",
            s(function),
            v(x),
            v(y)
        )
    };
    let (variant, fields) = match record {
        LogRecord::Declare {
            name,
            domain,
            range,
            functionality,
        } => (
            "Declare",
            format!(
                "{{\"name\":{},\"domain\":{},\"range\":{},\"functionality\":\"{functionality:?}\"}}",
                s(name),
                s(domain),
                s(range)
            ),
        ),
        LogRecord::Derive { name, steps } => {
            let steps: Vec<String> = steps
                .iter()
                .map(|(step, inverted)| format!("[{},{inverted}]", s(step)))
                .collect();
            (
                "Derive",
                format!("{{\"name\":{},\"steps\":[{}]}}", s(name), steps.join(",")),
            )
        }
        LogRecord::Insert { function, x, y } => ("Insert", update(function, x, y)),
        LogRecord::Delete { function, x, y } => ("Delete", update(function, x, y)),
        LogRecord::Replace { function, old, new } => (
            "Replace",
            format!(
                "{{\"function\":{},\"old\":[{},{}],\"new\":[{},{}]}}",
                s(function),
                v(&old.0),
                v(&old.1),
                v(&new.0),
                v(&new.1)
            ),
        ),
        LogRecord::TxnBegin { id } => ("TxnBegin", format!("{{\"id\":{id}}}")),
        LogRecord::TxnCommit { id } => ("TxnCommit", format!("{{\"id\":{id}}}")),
        LogRecord::TxnAbort { id } => ("TxnAbort", format!("{{\"id\":{id}}}")),
        LogRecord::TxnSavepoint { name } => ("TxnSavepoint", format!("{{\"name\":{}}}", s(name))),
        LogRecord::TxnRollbackTo { name } => {
            ("TxnRollbackTo", format!("{{\"name\":{}}}", s(name)))
        }
        LogRecord::NewTerm { term } => ("NewTerm", format!("{{\"term\":{term}}}")),
    };
    format!("{{\"{variant}\":{fields}}}")
}

/// `records` as a v1 log file: one line each.
pub fn v1_file<'a>(records: impl IntoIterator<Item = &'a LogRecord>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for record in records {
        bytes.extend_from_slice(to_json(record).as_bytes());
        bytes.push(b'\n');
    }
    bytes
}
