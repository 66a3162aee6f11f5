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
//! One object; the schema, the derivations and every value are read by
//! their own `serde` impls, the store's pieces field by field:
//!
//! | Field | JSON |
//! |---|---|
//! | `schema` | the `Schema` |
//! | `derived` | `{"<function id>": [Derivation, …]}` |
//! | `store.tables` | one `{"rows": [{x, y, truth, ncl, alive}, …]}` per function, rows in physical order, tombstones included; `truth` is `"True"`, `"Ambiguous"` or `"False"`, `ncl` a list of NC ids |
//! | `store.ncs` | `{"ncs": {"<NC id>": [{function, x, y}, …]}, "next": <next NC id>}` |
//! | `store.nulls` | `{"next": <index of the next fresh null>}` |
//! | `store.compaction` | optional, ignored: the compaction thresholds are constants |
//! | `chain_limits` | `{"max_chains": n}` |
//! | `delete_policy` | optional: `"Faithful"` (the default) or `"Strict"` |
//! | `insert_policy` | optional: `"FirstDerivation"` (the default) or `"ShortestDerivation"` |
//!
//! The store is built by the constructors the binary decoder uses, so a
//! JSON snapshot is refused for what a binary one is: a live row flagged
//! false, an NC id the counter has not reached, an NC/NCL duality break.

use std::collections::BTreeSet;

use serde::{Content, Deserialize};

use fdb_storage::chain::DeletePolicy;
use fdb_storage::{ChainLimits, Fact, NcId, NcStore, Store, Table, Truth};
use fdb_types::{FdbError, NullGen, Result, Schema, Value};

use super::{initial_term, CheckpointInfo, Corruption, LogRecord, Scan};
use crate::database::{Database, InsertPolicy};

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
    // A string field and an integer field, by name.
    let s = |name| get::<String>(c, name);
    let n = |name| get::<u64>(c, name);
    let record = match variant {
        "Declare" => LogRecord::Declare {
            name: s("name")?,
            domain: s("domain")?,
            range: s("range")?,
            functionality: get(c, "functionality")?,
        },
        "Derive" => LogRecord::Derive {
            name: s("name")?,
            steps: get(c, "steps")?,
        },
        "Insert" => LogRecord::Insert {
            function: s("function")?,
            x: get(c, "x")?,
            y: get(c, "y")?,
        },
        "Delete" => LogRecord::Delete {
            function: s("function")?,
            x: get(c, "x")?,
            y: get(c, "y")?,
        },
        "Replace" => LogRecord::Replace {
            function: s("function")?,
            old: get(c, "old")?,
            new: get(c, "new")?,
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

/// A checkpoint file as written before the binary layout: one JSON
/// document with the snapshot — itself JSON — as a string field.
#[derive(Deserialize)]
struct LegacyCheckpoint {
    seq: u64,
    snapshot: String,
    /// Absent in pre-replication checkpoints.
    #[serde(default)]
    term: Option<u64>,
}

/// Reads a checkpoint file in the JSON layout (it starts with `{`). It
/// carries no checksum to verify; the next checkpoint replaces it with
/// the binary layout.
pub(super) fn read_checkpoint_json(bytes: &[u8]) -> std::result::Result<CheckpointInfo, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    let legacy: LegacyCheckpoint =
        serde_json::from_str(text).map_err(|e| format!("corrupt: {e}"))?;
    Ok(CheckpointInfo {
        seq: legacy.seq,
        snapshot: legacy.snapshot.into_bytes(),
        term: legacy.term.unwrap_or_else(initial_term),
    })
}

/// Reads a JSON snapshot (see the module documentation for its layout).
pub(crate) fn read_snapshot(bytes: &[u8]) -> Result<Database> {
    snapshot_from_json(bytes).map_err(|e| match e {
        FdbError::Parse { message, .. } => {
            parse_error(format!("snapshot deserialisation failed: {message}"))
        }
        other => other,
    })
}

fn snapshot_from_json(bytes: &[u8]) -> Result<Database> {
    let text = std::str::from_utf8(bytes).map_err(|e| parse_error(format!("not UTF-8: {e}")))?;
    let doc = serde_json::parse(text).map_err(|e| parse_error(e.to_string()))?;
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
    for (id, conjuncts) in by_id.ok_or_else(|| parse_error("NCs: expected a map".into()))? {
        let conjuncts = seq(conjuncts)?.iter().map(fact).collect::<Result<_>>()?;
        listed.push((NcId(read(id)?), conjuncts));
    }
    let ncs = NcStore::from_parts(listed, read(field(ncs, "next")?)?)?;
    let nulls: NullGen = read(field(store, "nulls")?)?;
    let mut schema: Schema = read(field(&doc, "schema")?)?;
    schema.rebuild_index();
    let optional = |name| {
        doc.as_map()
            .and_then(|m| serde::map_get(m, name))
            .map(name_of)
    };
    Ok(Database::from_parts(
        schema,
        read(field(&doc, "derived")?)?,
        Store::from_parts(tables, ncs, nulls.watermark())?,
        ChainLimits {
            max_chains: read(field(field(&doc, "chain_limits")?, "max_chains")?)?,
        },
        match optional("delete_policy").transpose()? {
            None | Some("Faithful") => DeletePolicy::Faithful,
            Some("Strict") => DeletePolicy::Strict,
            Some(other) => return Err(parse_error(format!("unknown delete policy {other:?}"))),
        },
        match optional("insert_policy").transpose()? {
            None | Some("FirstDerivation") => InsertPolicy::FirstDerivation,
            Some("ShortestDerivation") => InsertPolicy::ShortestDerivation,
            Some(other) => return Err(parse_error(format!("unknown insert policy {other:?}"))),
        },
    ))
}

/// One table row: `(x, y, truth, NCL, alive)`.
fn row(c: &Content) -> Result<(Value, Value, Truth, BTreeSet<NcId>, bool)> {
    let truth = match name_of(field(c, "truth")?)? {
        "True" => Truth::True,
        "Ambiguous" => Truth::Ambiguous,
        "False" => Truth::False,
        other => return Err(parse_error(format!("unknown truth flag {other:?}"))),
    };
    let ncl: Vec<u64> = read(field(c, "ncl")?)?;
    Ok((
        read(field(c, "x")?)?,
        read(field(c, "y")?)?,
        truth,
        ncl.into_iter().map(NcId).collect(),
        read(field(c, "alive")?)?,
    ))
}

/// One NC conjunct.
fn fact(c: &Content) -> Result<Fact> {
    Ok(Fact {
        function: read(field(c, "function")?)?,
        x: read(field(c, "x")?)?,
        y: read(field(c, "y")?)?,
    })
}

fn field<'c>(c: &'c Content, name: &str) -> Result<&'c Content> {
    c.as_map()
        .and_then(|m| serde::map_get(m, name))
        .ok_or_else(|| parse_error(format!("missing field `{name}`")))
}

fn seq(c: &Content) -> Result<&[Content]> {
    c.as_seq()
        .ok_or_else(|| parse_error("expected a list".into()))
}

/// A unit variant, written as its name.
fn name_of(c: &Content) -> Result<&str> {
    c.as_str()
        .ok_or_else(|| parse_error("expected a variant name".into()))
}

fn read<T: Deserialize>(c: &Content) -> Result<T> {
    T::from_content(c).map_err(|e| parse_error(e.to_string()))
}

/// The field `name` of the object `c`, read by its own `serde` impl.
fn get<T: Deserialize>(c: &Content, name: &str) -> Result<T> {
    read(field(c, name)?)
}

fn parse_error(message: String) -> FdbError {
    FdbError::Parse { line: 0, message }
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
