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
//! | store | written by [`Store::encode`](fdb_storage::Store::encode): tables, NC store, null watermark, two reserved fields (the compaction thresholds, written as constants, read and ignored) |
//! | checksum | CRC-32 (IEEE, little-endian) of every byte before it |
//!
//! Integers and lengths are the little-endian base-128 integers of
//! [`fdb_types::codec`]; each type encodes its own private fields beside
//! their definition. Checkpoints, replica seeds and `SAVE`/`LOAD` all
//! carry exactly these bytes.
//!
//! A snapshot written before this format existed is a JSON document; it
//! starts with `{`, which no binary snapshot does, and
//! [`Database::from_snapshot`] hands it to the log's legacy reader
//! (`wal::legacy`, where its layout is documented). Nothing writes that
//! form any more. Both readers build the store through the same
//! constructors, which refuse a state the store never holds: a live row
//! flagged false, an NC id the NC counter has not reached, an NC/NCL
//! duality break.

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
        if bytes.first() == Some(&b'{') {
            crate::wal::legacy::read_snapshot(bytes)
        } else {
            decode(bytes)
        }
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
    decode_body(Reader::new(&body[SNAPSHOT_MAGIC.len()..])).map_err(|e| match e {
        FdbError::Parse { message, .. } => corrupt(format!("snapshot: {message}")),
        other => other,
    })
}

/// Everything between the magic and the checksum.
fn decode_body(mut r: Reader<'_>) -> Result<Database> {
    let (mut schema, derived): (Schema, BTreeMap<FunctionId, Vec<Derivation>>) =
        serde_json::from_str(r.str()?).map_err(|e| corrupt(format!("schema section: {e}")))?;
    schema.rebuild_index();
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
        // The tombstone included: the same bytes when encoded again.
        let t = back.resolve("teach").unwrap();
        assert_eq!(back.store().table(t).tombstones(), 1);
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

    /// A JSON snapshot the last version that wrote the form recorded,
    /// with its binary snapshot (`tests/legacy_snapshots.rs` reads the
    /// whole corpus).
    #[test]
    fn legacy_json_snapshot_still_loads() {
        let json = include_bytes!("../../../tests/fixtures/legacy/corpus/07.json");
        let binary = include_bytes!("../../../tests/fixtures/legacy/corpus/07.snap");
        let back = Database::from_snapshot(json).unwrap();
        assert_eq!(back.to_snapshot().unwrap(), binary);
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

    /// Re-sealed bodies whose edit makes a state the store never holds
    /// load as nothing: an NCL id naming no NC, a live row flagged false,
    /// an NC id the NC counter has not reached.
    #[test]
    fn resealed_body_holding_an_impossible_state_is_an_error() {
        let bytes = university_with_history().to_snapshot().unwrap();
        let atom = |s: &str| [&[0, s.len() as u8][..], s.as_bytes()].concat();
        // The row `teach(euclid, math)`: flags 0b011 (ambiguous, alive),
        // an NCL of one id, g1. Then the NC store: `next` 2, one NC, g1,
        // of two conjuncts, the first in function 0.
        let row = [atom("euclid"), atom("math"), vec![0b011, 1, 1]].concat();
        let ncs = [vec![2, 1, 1, 2, 0], atom("euclid")].concat();
        for (pattern, at, value, why) in [
            (&row, row.len() - 1, 2, "duality"),
            (&row, row.len() - 3, 0b001, "flagged F"),
            (&ncs, 0, 1, "is not below the next NC id"),
        ] {
            let start = bytes
                .windows(pattern.len())
                .position(|w| w == pattern.as_slice())
                .expect("pattern in the snapshot");
            let mut damaged = bytes.clone();
            damaged[start + at] = value;
            reseal(&mut damaged);
            let err = Database::from_snapshot(&damaged).unwrap_err().to_string();
            assert!(err.contains(why), "{why}: {err}");
        }
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
