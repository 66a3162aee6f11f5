//! Durable snapshots of a whole database instance.
//!
//! The paper's system is an in-memory design aid; a practical library
//! needs persistence. A snapshot is one self-checking byte string holding
//! the schema, the derived-function registry, the limits and policies,
//! and the extensional store (every table row *including tombstones*,
//! truth flags, NCLs, the NC store and the null-generator watermark), so
//! a reloaded instance answers every query identically and is physically
//! the same store: equal states encode to equal bytes.
//!
//! # Layout
//!
//! | Piece | Bytes |
//! |---|---|
//! | magic | `FDBSNAP1` |
//! | schema section | length-prefixed JSON of `(schema, derivations)` — O(schema), it does not grow with the data |
//! | limits and policies | `max_chains`, delete policy, insert policy |
//! | store | written by [`Store::encode`](fdb_storage::Store::encode): tables, NC store, null watermark, compaction policy |
//! | checksum | CRC-32 (IEEE, little-endian) of every byte before it |
//!
//! Integers and lengths are the little-endian base-128 integers of
//! [`fdb_types::codec`]; each type encodes its own private fields beside
//! their definition. Checkpoints, replica seeds and `SAVE`/`LOAD` all
//! carry exactly these bytes.
//!
//! A snapshot written before this format existed is a JSON document; it
//! starts with `{`, which no binary snapshot does, and
//! [`Database::from_snapshot`] hands it to the serde reader — the only
//! JSON path left for a `Database`, kept for such files and as the
//! tests' differential oracle. Nothing writes that form any more.

use std::collections::BTreeMap;

use fdb_storage::chain::DeletePolicy;
use fdb_storage::{ChainLimits, Store};
use fdb_types::codec::{put_str, put_uint, Reader};
use fdb_types::{Derivation, FdbError, FunctionId, Result, Schema};

use crate::database::{Database, InsertPolicy};
use crate::wal::{crc32, le_u32};

/// Magic header identifying a binary snapshot.
const SNAPSHOT_MAGIC: &[u8; 8] = b"FDBSNAP1";

/// Bytes of the trailing checksum.
const CRC_LEN: usize = 4;

fn corrupt(message: String) -> FdbError {
    FdbError::Parse { line: 0, message }
}

impl Database {
    /// Serialises the database to a binary snapshot (see the module
    /// documentation for the layout).
    pub fn to_snapshot(&self) -> Result<Vec<u8>> {
        let meta = serde_json::to_string(&(self.schema(), self.derived_registry()))
            .map_err(|e| FdbError::Internal(format!("snapshot serialisation failed: {e}")))?;
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        put_str(&mut out, &meta);
        put_uint(&mut out, self.chain_limits().max_chains as u64);
        out.push(match self.delete_policy() {
            DeletePolicy::Faithful => 0,
            DeletePolicy::Strict => 1,
        });
        out.push(match self.insert_policy() {
            InsertPolicy::FirstDerivation => 0,
            InsertPolicy::ShortestDerivation => 1,
        });
        self.store().encode(&mut out);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        Ok(out)
    }

    /// Restores a database from a snapshot, rebuilding indexes. Damaged
    /// or truncated bytes are an error, never a different database.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Database> {
        let mut db = if bytes.first() == Some(&b'{') {
            from_legacy_json(bytes)?
        } else {
            decode(bytes)?
        };
        db.rebuild_index();
        Ok(db)
    }
}

fn decode(bytes: &[u8]) -> Result<Database> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + CRC_LEN || !bytes.starts_with(SNAPSHOT_MAGIC) {
        return Err(corrupt(
            "snapshot: not a snapshot (no FDBSNAP1 header)".to_owned(),
        ));
    }
    let (body, tail) = bytes.split_at(bytes.len() - CRC_LEN);
    let (stored, actual) = (le_u32(tail), crc32(body));
    if stored != actual {
        return Err(corrupt(format!(
            "snapshot: checksum mismatch (crc32 expected {stored:#010x}, found {actual:#010x})"
        )));
    }
    let mut r = Reader::new(&body[SNAPSHOT_MAGIC.len()..]);
    let (schema, derived): (Schema, BTreeMap<FunctionId, Vec<Derivation>>) =
        serde_json::from_str(r.str()?)
            .map_err(|e| corrupt(format!("snapshot: schema section: {e}")))?;
    let max_chains = usize::try_from(r.uint()?).map_err(|_| r.error("chain limit out of range"))?;
    let delete_policy = match r.byte()? {
        0 => DeletePolicy::Faithful,
        1 => DeletePolicy::Strict,
        _ => return Err(r.error("unknown delete policy")),
    };
    let insert_policy = match r.byte()? {
        0 => InsertPolicy::FirstDerivation,
        1 => InsertPolicy::ShortestDerivation,
        _ => return Err(r.error("unknown insert policy")),
    };
    let store = Store::decode(&mut r)?;
    r.finish()?;
    Ok(Database::from_parts(
        schema,
        derived,
        store,
        ChainLimits { max_chains },
        delete_policy,
        insert_policy,
    ))
}

/// The reader of snapshots written as one JSON document (every snapshot
/// before the binary format: old checkpoints, old `SAVE` files, a seed
/// from an old primary).
fn from_legacy_json(bytes: &[u8]) -> Result<Database> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| corrupt(format!("snapshot deserialisation failed: not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| corrupt(format!("snapshot deserialisation failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_storage::Truth;
    use fdb_types::{Derivation, Schema, Step, Value};

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn university_with_history() -> Database {
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "many-many")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let (t, c, p) = (
            db.resolve("teach").unwrap(),
            db.resolve("class_list").unwrap(),
            db.resolve("pupil").unwrap(),
        );
        db.register_derived(
            p,
            vec![Derivation::new(vec![Step::identity(t), Step::identity(c)]).unwrap()],
        )
        .unwrap();
        db.insert(t, v("euclid"), v("math")).unwrap();
        db.insert(t, v("laplace"), v("math")).unwrap();
        db.insert(c, v("math"), v("john")).unwrap();
        db.insert(c, v("math"), v("bill")).unwrap();
        db.delete(p, &v("euclid"), &v("john")).unwrap();
        db.insert(p, v("gauss"), v("bill")).unwrap();
        // A tombstone: snapshots are physical.
        db.delete(t, &v("laplace"), &v("math")).unwrap();
        db
    }

    #[test]
    fn snapshot_round_trip_preserves_truth() {
        let db = university_with_history();
        let bytes = db.to_snapshot().unwrap();
        let back = Database::from_snapshot(&bytes).unwrap();
        let p = back.resolve("pupil").unwrap();
        assert_eq!(
            back.truth(p, &v("euclid"), &v("john")).unwrap(),
            Truth::False
        );
        assert_eq!(
            back.truth(p, &v("euclid"), &v("bill")).unwrap(),
            Truth::Ambiguous
        );
        assert_eq!(back.truth(p, &v("gauss"), &v("bill")).unwrap(), Truth::True);
        assert_eq!(back.stats(), db.stats());
        assert!(back.is_consistent());
        // Field for field what the serde round trip yields, tombstone
        // included, and the same bytes when encoded again.
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&db).unwrap()
        );
        assert_eq!(back.to_snapshot().unwrap(), bytes);
    }

    #[test]
    fn snapshot_preserves_null_watermark() {
        let db = university_with_history();
        let bytes = db.to_snapshot().unwrap();
        let mut back = Database::from_snapshot(&bytes).unwrap();
        // A new derived insert must not reuse n1.
        let p = back.resolve("pupil").unwrap();
        back.insert(p, v("noether"), v("emmy_jr")).unwrap();
        assert_eq!(back.store().nulls().generated(), 2);
    }

    #[test]
    fn legacy_json_snapshot_still_loads() {
        let db = university_with_history();
        let json = serde_json::to_string(&db).unwrap();
        let back = Database::from_snapshot(json.as_bytes()).unwrap();
        assert_eq!(back.to_snapshot().unwrap(), db.to_snapshot().unwrap());
    }

    #[test]
    fn corrupt_snapshot_is_an_error() {
        assert!(Database::from_snapshot(b"{not json").is_err());
        assert!(Database::from_snapshot(b"").is_err());
        assert!(Database::from_snapshot(b"FDBSNAP1").is_err());
        let bytes = university_with_history().to_snapshot().unwrap();
        for cut in 0..bytes.len() {
            assert!(Database::from_snapshot(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            let err = Database::from_snapshot(&flipped).unwrap_err();
            if i >= SNAPSHOT_MAGIC.len() {
                assert!(err.to_string().contains("crc32 expected"), "{i}: {err}");
            }
        }
    }

    /// Re-seals `bytes` with a correct checksum, so damage in the body
    /// reaches the decoder instead of stopping at the CRC.
    fn reseal(bytes: &mut [u8]) {
        let at = bytes.len() - CRC_LEN;
        let crc = crc32(&bytes[..at]);
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn decoder_survives_damage_the_checksum_does_not_catch() {
        let bytes = university_with_history().to_snapshot().unwrap();
        let body = SNAPSHOT_MAGIC.len()..bytes.len() - CRC_LEN;
        for i in body.clone() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut damaged = bytes.clone();
                damaged[i] ^= mask;
                reseal(&mut damaged);
                // Any outcome but a panic (or an allocation sized by a
                // damaged length, which `Reader::count` refuses): most
                // flips are decode errors, a flip inside an atom is a
                // different, well-formed database.
                if let Ok(db) = Database::from_snapshot(&damaged) {
                    db.to_snapshot().unwrap();
                }
            }
        }
        // Every prefix of the body, sealed as if it were complete.
        for cut in body {
            let mut damaged = bytes[..cut].to_vec();
            damaged.extend_from_slice(&[0; CRC_LEN]);
            reseal(&mut damaged);
            assert!(Database::from_snapshot(&damaged).is_err(), "cut {cut}");
        }
    }
}
