//! The formats earlier versions wrote, and the only code that reads
//! their JSON: a JSON record payload (inside a v2 frame, or a line of a
//! v1 file), the v1 single-file log, the JSON checkpoint document, and
//! the JSON snapshot inside it (also an old `SAVE` file or an old
//! primary's replica seed). Old directories and files are read in place
//! without an upgrade pass; nothing here writes, and everything this
//! version writes is binary.
//!
//! # The JSON record
//!
//! One object with one entry: the variant's name, then an object of its
//! fields. A string is a JSON string; a value is `{"Atom": "<text>"}` or
//! `{"Null": <index>}`:
//!
//! | Variant | Fields |
//! |---|---|
//! | `Declare` | `{"name", "domain", "range", "functionality"}`: three strings, then `"OneOne"`, `"OneMany"`, `"ManyOne"` or `"ManyMany"` |
//! | `Derive` | `{"name", "steps"}`: a string, then `[["<function>", <inverted: bool>], …]` |
//! | `Insert`, `Delete` | `{"function", "x", "y"}`: a string and two values |
//! | `Replace` | `{"function", "old", "new"}`: a string and two `[x, y]` pairs of values |
//! | `TxnBegin`, `TxnCommit`, `TxnAbort` | `{"id"}`: an integer |
//! | `TxnSavepoint`, `TxnRollbackTo` | `{"name"}`: a string |
//! | `NewTerm` | `{"term"}`: an integer |
//!
//! Other fields are ignored. As in the binary decoder, an unknown name is
//! a newer version's record, skipped, and a known name whose fields do
//! not read is damage, as is anything else. `tests/fixtures/legacy/`
//! holds every variant as the last version that wrote JSON did
//! (`records.jsonl`), beside its binary payload (`records.hex`).
//!
//! # The JSON snapshot
//!
//! One object, read field by field; `schema` and `derived` are the two
//! parts of a binary snapshot's schema section, read by the same code
//! (`snapshot::read_catalog`, where their layout is documented):
//!
//! | Field | JSON |
//! |---|---|
//! | `schema` | the schema: types and function definitions |
//! | `derived` | `{"<function id>": [{"steps": [{"op", "function"}, …]}, …]}` |
//! | `store.tables` | one `{"rows": [{x, y, truth, ncl, alive}, …]}` per function, rows in physical order, tombstones included; `truth` is `"True"`, `"Ambiguous"` or `"False"`, `ncl` a list of NC ids |
//! | `store.ncs` | `{"ncs": {"<NC id>": [{function, x, y}, …]}, "next": <next NC id>}` |
//! | `store.nulls` | `{"next": <index of the next fresh null>}` |
//! | `store.compaction` | optional, ignored: the compaction thresholds are constants |
//! | `chain_limits` | `{"max_chains": n}` |
//! | `delete_policy` | optional: `"Faithful"` (the default) or `"Strict"` |
//! | `insert_policy` | optional: `"FirstDerivation"` (the default) or `"ShortestDerivation"` |
//!
//! The catalog and the store are built by the constructors the binary
//! decoder uses, so a JSON snapshot is refused for what a binary one is:
//! a catalog `DECLARE` or `DERIVE` would refuse, a live row flagged
//! false, an NC id the counter has not reached, an NC/NCL duality break.
//! Integers are also read from their decimal text, as map keys are
//! written.

use std::collections::BTreeSet;

use serde::Content;

use fdb_storage::chain::DeletePolicy;
use fdb_storage::{ChainLimits, Fact, NcId, NcStore, Store, Table, Truth};
use fdb_types::{FdbError, FunctionId, NullId, Result, Value};

use super::{initial_term, CheckpointInfo, Corruption, LogRecord, Scan};
use crate::database::{Database, InsertPolicy};
use crate::snapshot::{corrupt, field, functionality, id, read_catalog, seq, string, uint};

/// Decodes a JSON record payload (see the module documentation for its
/// layout). `Ok(None)` is a record type this version does not know —
/// written deliberately by a newer version, to be skipped rather than
/// treated as corruption. `Err` says what failed to decode.
pub(super) fn decode_json(payload: &[u8]) -> std::result::Result<Option<LogRecord>, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    let doc = serde_json::parse(text).map_err(|e| format!("payload JSON: {e}"))?;
    let Some([(Content::Str(variant), fields)]) = doc.as_map() else {
        return Err("payload JSON: not a one-entry object naming a record".to_owned());
    };
    record(variant, fields).map_err(|e| match e {
        FdbError::Parse { message, .. } => format!("payload JSON: {variant}: {message}"),
        other => format!("payload JSON: {variant}: {other}"),
    })
}

/// The record named `variant`, read from its fields; `None` for a name
/// this version does not know.
fn record(variant: &str, c: &Content) -> Result<Option<LogRecord>> {
    // A string, an integer and a value field, by name.
    let s = |name| string(field(c, name)?).map(str::to_owned);
    let n = |name| uint(field(c, name)?);
    let v = |name| value(field(c, name)?);
    let record = match variant {
        "Declare" => LogRecord::Declare {
            name: s("name")?,
            domain: s("domain")?,
            range: s("range")?,
            functionality: functionality(field(c, "functionality")?)?,
        },
        "Derive" => LogRecord::Derive {
            name: s("name")?,
            steps: seq(field(c, "steps")?)?
                .iter()
                .map(|step| match seq(step)? {
                    [function, inverted, ..] => {
                        Ok((string(function)?.to_owned(), boolean(inverted)?))
                    }
                    _ => Err(corrupt("expected a [function, inverted] step".into())),
                })
                .collect::<Result<_>>()?,
        },
        "Insert" => LogRecord::Insert {
            function: s("function")?,
            x: v("x")?,
            y: v("y")?,
        },
        "Delete" => LogRecord::Delete {
            function: s("function")?,
            x: v("x")?,
            y: v("y")?,
        },
        "Replace" => LogRecord::Replace {
            function: s("function")?,
            old: pair(field(c, "old")?)?,
            new: pair(field(c, "new")?)?,
        },
        "TxnBegin" => LogRecord::TxnBegin { id: n("id")? },
        "TxnCommit" => LogRecord::TxnCommit { id: n("id")? },
        "TxnAbort" => LogRecord::TxnAbort { id: n("id")? },
        "TxnSavepoint" => LogRecord::TxnSavepoint { name: s("name")? },
        "TxnRollbackTo" => LogRecord::TxnRollbackTo { name: s("name")? },
        "NewTerm" => LogRecord::NewTerm { term: n("term")? },
        _ => return Ok(None),
    };
    Ok(Some(record))
}

/// Scans a v1 file: newline-delimited JSON records, numbered by
/// position from `scan.next_seq`.
pub(super) fn scan_v1(bytes: &[u8], scan: &mut Scan) {
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let (line, advance, complete) = match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => (&rest[..nl], nl + 1, true),
            None => (rest, rest.len(), false),
        };
        if !line.iter().all(|b| b.is_ascii_whitespace()) {
            match decode_json(line) {
                Ok(Some(record)) => {
                    scan.records.push((scan.next_seq, record));
                    scan.next_seq += 1;
                }
                _ if !complete => {
                    // A partial final line: the classic torn tail.
                    scan.flaw = Some(Corruption::TornRecord {
                        offset: offset as u64,
                    });
                    break;
                }
                // A complete line naming a record type this version does
                // not know was written deliberately (by a newer version);
                // skip it. A line that is not a record, or a known record
                // whose fields do not read, is damage: a v1 line has no
                // checksum to tell the two apart otherwise.
                Ok(None) => scan.skipped += 1,
                Err(detail) => {
                    scan.flaw = Some(Corruption::Malformed {
                        offset: offset as u64,
                        detail: format!("v1 line: {detail}"),
                    });
                    break;
                }
            }
        }
        offset += advance;
    }
    scan.valid_len = offset as u64;
}

/// Reads a checkpoint file in the JSON layout (it starts with `{`): one
/// object with the sequence number `seq`, the snapshot — itself JSON —
/// as the string `snapshot`, and the `term`, absent (or `null`) in
/// pre-replication checkpoints. It carries no checksum to verify; the
/// next checkpoint replaces it with the binary layout.
pub(super) fn read_checkpoint_json(bytes: &[u8]) -> std::result::Result<CheckpointInfo, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    let doc = serde_json::parse(text).map_err(|e| format!("corrupt: {e}"))?;
    checkpoint_from_json(&doc).map_err(|e| match e {
        FdbError::Parse { message, .. } => format!("corrupt: {message}"),
        other => format!("corrupt: {other}"),
    })
}

fn checkpoint_from_json(doc: &Content) -> Result<CheckpointInfo> {
    let term = match doc.as_map().and_then(|m| serde::map_get(m, "term")) {
        None | Some(Content::Null) => initial_term(),
        Some(term) => uint(term)?,
    };
    Ok(CheckpointInfo {
        seq: uint(field(doc, "seq")?)?,
        snapshot: string(field(doc, "snapshot")?)?.as_bytes().to_vec(),
        term,
    })
}

/// Reads a JSON snapshot (see the module documentation for its layout).
pub(crate) fn read_snapshot(bytes: &[u8]) -> Result<Database> {
    snapshot_from_json(bytes).map_err(|e| match e {
        FdbError::Parse { message, .. } => {
            corrupt(format!("snapshot deserialisation failed: {message}"))
        }
        other => other,
    })
}

fn snapshot_from_json(bytes: &[u8]) -> Result<Database> {
    let text = std::str::from_utf8(bytes).map_err(|e| corrupt(format!("not UTF-8: {e}")))?;
    let doc = serde_json::parse(text).map_err(|e| corrupt(e.to_string()))?;
    let store = field(&doc, "store")?;
    let mut tables = Vec::new();
    for table in seq(field(store, "tables")?)? {
        let rows: Vec<_> = seq(field(table, "rows")?)?
            .iter()
            .map(row)
            .collect::<Result<_>>()?;
        tables.push(Table::from_rows(rows)?);
    }
    let ncs = field(store, "ncs")?;
    let mut listed = Vec::new();
    let by_id = field(ncs, "ncs")?.as_map();
    for (id, conjuncts) in by_id.ok_or_else(|| corrupt("NCs: expected a map".into()))? {
        let conjuncts = seq(conjuncts)?.iter().map(fact).collect::<Result<_>>()?;
        listed.push((NcId(uint(id)?), conjuncts));
    }
    let ncs = NcStore::from_parts(listed, uint(field(ncs, "next")?)?)?;
    let null_watermark = uint(field(field(store, "nulls")?, "next")?)?;
    let (schema, derived) = read_catalog(field(&doc, "schema")?, field(&doc, "derived")?)?;
    let optional = |name| {
        doc.as_map()
            .and_then(|m| serde::map_get(m, name))
            .map(string)
    };
    let max_chains = uint(field(field(&doc, "chain_limits")?, "max_chains")?)?;
    Database::from_parts(
        schema,
        derived,
        Store::from_parts(tables, ncs, null_watermark)?,
        ChainLimits {
            max_chains: usize::try_from(max_chains)
                .map_err(|_| corrupt("chain limit out of range".into()))?,
        },
        match optional("delete_policy").transpose()? {
            None | Some("Faithful") => DeletePolicy::Faithful,
            Some("Strict") => DeletePolicy::Strict,
            Some(other) => return Err(corrupt(format!("unknown delete policy {other:?}"))),
        },
        match optional("insert_policy").transpose()? {
            None | Some("FirstDerivation") => InsertPolicy::FirstDerivation,
            Some("ShortestDerivation") => InsertPolicy::ShortestDerivation,
            Some(other) => return Err(corrupt(format!("unknown insert policy {other:?}"))),
        },
    )
}

/// One table row: `(x, y, truth, NCL, alive)`.
fn row(c: &Content) -> Result<(Value, Value, Truth, BTreeSet<NcId>, bool)> {
    let truth = match string(field(c, "truth")?)? {
        "True" => Truth::True,
        "Ambiguous" => Truth::Ambiguous,
        "False" => Truth::False,
        other => return Err(corrupt(format!("unknown truth flag {other:?}"))),
    };
    let ncl = seq(field(c, "ncl")?)?.iter().map(|id| uint(id).map(NcId));
    Ok((
        value(field(c, "x")?)?,
        value(field(c, "y")?)?,
        truth,
        ncl.collect::<Result<_>>()?,
        boolean(field(c, "alive")?)?,
    ))
}

/// One NC conjunct.
fn fact(c: &Content) -> Result<Fact> {
    Ok(Fact {
        function: FunctionId(id(field(c, "function")?)?),
        x: value(field(c, "x")?)?,
        y: value(field(c, "y")?)?,
    })
}

/// A value: `{"Atom": "<text>"}` or `{"Null": <index>}`.
fn value(c: &Content) -> Result<Value> {
    match c.as_map() {
        Some([(Content::Str(tag), inner)]) if tag == "Atom" => Ok(Value::atom(string(inner)?)),
        Some([(Content::Str(tag), inner)]) if tag == "Null" => {
            Ok(Value::Null(NullId(uint(inner)?)))
        }
        _ => Err(corrupt(format!("expected a value, got {c:?}"))),
    }
}

/// Two values, `[x, y]`.
fn pair(c: &Content) -> Result<(Value, Value)> {
    match seq(c)? {
        [x, y, ..] => Ok((value(x)?, value(y)?)),
        _ => Err(corrupt("expected an [x, y] pair".into())),
    }
}

fn boolean(c: &Content) -> Result<bool> {
    match c {
        Content::Bool(b) => Ok(*b),
        other => Err(corrupt(format!("expected a bool, got {other:?}"))),
    }
}

/// The hand-written JSON writer the tests lay out legacy records with.
#[cfg(test)]
#[path = "../../../../tests/common/legacy_json.rs"]
pub(crate) mod json;

/// A CRC-valid frame whose payload is valid JSON but not a record this
/// version knows — a future record type as an older writer laid it out.
#[cfg(test)]
pub(super) fn unknown_json_frame(seq: u64) -> Vec<u8> {
    super::frame_by_hand(seq, br#"{"Vacuum":{"aggressive":true}}"#)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::TypeId;

    fn json(text: &str) -> Content {
        serde_json::parse(text).unwrap()
    }

    /// Values as every JSON form wrote them, a shared (over 14 bytes) and
    /// a non-ASCII atom among them, and a catalog as the schema section
    /// lays it out: names and types resolve in the schema it rebuilds.
    #[test]
    fn reads_values_and_a_catalog_from_their_json() {
        let long = "a shared atom of thirty bytes!";
        for (text, expected) in [
            (format!(r#"{{"Atom":"{long}"}}"#), Value::atom(long)),
            (r#"{"Atom":"Gauß"}"#.to_owned(), Value::atom("Gauß")),
            (r#"{"Atom":"été"}"#.to_owned(), Value::atom("été")),
            (r#"{"Null":3}"#.to_owned(), Value::Null(NullId(3))),
            (r#"{"Null":"3"}"#.to_owned(), Value::Null(NullId(3))),
        ] {
            assert_eq!(value(&json(&text)).unwrap(), expected, "{text}");
        }
        for text in [
            r#""gauss""#,
            r#"{"Atom":1}"#,
            r#"{"Null":-1}"#,
            r#"{"Atom":"a","Null":1}"#,
        ] {
            assert!(value(&json(text)).is_err(), "{text}");
        }

        let schema = json(concat!(
            r#"{"types":{"infos":[{"name":"student","components":[]},"#,
            r#"{"name":"course","components":[]},"#,
            r#"{"name":"[student; course]","components":[0,1]},"#,
            r#"{"name":"letter_grade","components":[]},{"name":"marks","components":[]}]},"#,
            r#""functions":[{"id":0,"name":"grade","domain":2,"range":3,"functionality":"ManyOne"},"#,
            r#"{"id":1,"name":"score","domain":2,"range":4,"functionality":"ManyOne"},"#,
            r#"{"id":2,"name":"cutoff","domain":4,"range":3,"functionality":"ManyOne"}]}"#,
        ));
        let derived = json(
            r#"{"0":[{"steps":[{"op":"Identity","function":1},{"op":"Identity","function":2}]}]}"#,
        );
        let (schema, derived) = read_catalog(&schema, &derived).unwrap();
        assert_eq!(schema.resolve("cutoff").unwrap(), FunctionId(2));
        let grade = schema.function_by_name("grade").unwrap();
        let types = schema.types();
        assert_eq!(types.lookup("[student ;course]"), Some(grade.domain));
        assert_eq!(types.lookup("marks"), Some(TypeId(4)));
        assert_eq!(types.components(grade.domain), &[TypeId(0), TypeId(1)]);
        assert_eq!(
            schema.render_def(grade.id),
            "grade: [student; course] -> letter_grade; (many - one)"
        );
        assert_eq!(derived[&grade.id][0].render(&schema), "score o cutoff");
    }
}
