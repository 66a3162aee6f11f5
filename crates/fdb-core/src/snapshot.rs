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
//! | schema section | the catalog as length-prefixed JSON text, laid out below — O(schema), it does not grow with the data |
//! | limits and policies | `max_chains`, delete policy, insert policy |
//! | store | written by [`Store::encode`](fdb_storage::Store::encode): tables, NC store, null watermark, two reserved fields (the compaction thresholds, written as constants, read and ignored) |
//! | checksum | CRC-32 (IEEE, little-endian) of every byte before it |
//!
//! Integers and lengths are the little-endian base-128 integers of
//! [`fdb_types::codec`]; each type encodes its own private fields beside
//! their definition. Checkpoints, replica seeds and `SAVE`/`LOAD` all
//! carry exactly these bytes.
//!
//! # The schema section
//!
//! A two-element JSON array, `[schema, derivations]`, written by
//! `catalog_json` and read by `read_catalog`, the only code that
//! knows it:
//!
//! | Part | JSON |
//! |---|---|
//! | `schema` | `{"types": {"infos": [type, …]}, "functions": [function, …]}` |
//! | type | `{"name", "components"}`: the canonical name, then the component type ids of a compound `[a; b]` (`[]` for a simple type), in interning order |
//! | function | `{"id", "name", "domain", "range", "functionality"}`: the id, the name, two type ids, then `"OneOne"`, `"OneMany"`, `"ManyOne"` or `"ManyMany"`, in declaration order |
//! | `derivations` | `{"<function id>": [{"steps": [{"op", "function"}, …]}, …]}`: per derived function its derivations, each step `"Identity"` or `"Inverse"` and a function id |
//!
//! The reader builds the catalog only the way statements do: it replays
//! [`Schema::declare`] in the listed order, requires each listed id and
//! the listed type table to be what the replay produced, builds each
//! derivation with [`Derivation::new`] and checks every registration
//! with the rules of [`Database::register_derived`]. A catalog that
//! `DECLARE` or `DERIVE` would refuse is a parse error, not a database.
//!
//! A snapshot written before this format existed is a JSON document; it
//! starts with `{`, which no binary snapshot does, and
//! [`Database::from_snapshot`] hands it to the log's legacy reader
//! (`wal::legacy`, where its layout is documented), which reads its
//! catalog with `read_catalog` too. Nothing writes that form any more.
//! Both readers build the store through the same constructors, which
//! refuse a state the store never holds: a live row flagged false, an NC
//! id the NC counter has not reached, an NC/NCL duality break.

use std::collections::BTreeMap;

use serde::Content;

use fdb_storage::chain::DeletePolicy;
use fdb_storage::{ChainLimits, Store};
use fdb_types::codec::{put_str, put_uint, Reader};
use fdb_types::{Derivation, FdbError, FunctionId, Functionality, Op, Result, Schema, Step};

use crate::database::{Database, InsertPolicy};
use crate::wal::{crc32, le_u32};

/// Magic header identifying a binary snapshot.
const SNAPSHOT_MAGIC: &[u8; 8] = b"FDBSNAP1";

/// Bytes of the trailing checksum.
const CRC_LEN: usize = 4;

/// The derived-function registry: each derived function's derivations.
type Registry = BTreeMap<FunctionId, Vec<Derivation>>;

/// Each functionality beside its name in the JSON the snapshot readers
/// read (the schema section, the legacy log's `Declare` record).
const FUNCTIONALITIES: [(Functionality, &str); 4] = [
    (Functionality::OneOne, "OneOne"),
    (Functionality::OneMany, "OneMany"),
    (Functionality::ManyOne, "ManyOne"),
    (Functionality::ManyMany, "ManyMany"),
];

/// A parse error of a snapshot or of another JSON form the log reads.
pub(crate) fn corrupt(message: String) -> FdbError {
    FdbError::Parse { line: 0, message }
}

impl Database {
    /// Serialises the database to a binary snapshot (see the module
    /// documentation for the layout).
    pub fn to_snapshot(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        put_str(
            &mut out,
            &catalog_json(self.schema(), self.derived_registry())?,
        );
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

/// The schema section's text (see the module documentation).
fn catalog_json(schema: &Schema, derived: &Registry) -> Result<String> {
    fn text(s: &str) -> Content {
        Content::Str(s.to_owned())
    }
    fn object<const N: usize>(fields: [(&str, Content); N]) -> Content {
        Content::Map(fields.into_iter().map(|(k, v)| (text(k), v)).collect())
    }
    let id = |n: u32| Content::U64(n.into());
    let types = schema.types();
    let infos = types
        .iter()
        .map(|(t, name)| {
            let components = types.components(t).iter().map(|c| id(c.0)).collect();
            object([
                ("name", text(name)),
                ("components", Content::Seq(components)),
            ])
        })
        .collect();
    let functions = schema
        .functions()
        .iter()
        .map(|f| {
            let (_, functionality) = FUNCTIONALITIES
                .into_iter()
                .find(|&(g, _)| g == f.functionality)
                .expect("every functionality is listed");
            object([
                ("id", id(f.id.0)),
                ("name", text(&f.name)),
                ("domain", id(f.domain.0)),
                ("range", id(f.range.0)),
                ("functionality", text(functionality)),
            ])
        })
        .collect();
    let step = |s: &Step| {
        let op = match s.op {
            Op::Identity => "Identity",
            Op::Inverse => "Inverse",
        };
        object([("op", text(op)), ("function", id(s.function.0))])
    };
    let registry = derived
        .iter()
        .map(|(f, ders)| {
            let ders = ders
                .iter()
                .map(|d| object([("steps", Content::Seq(d.steps().iter().map(step).collect()))]))
                .collect();
            (id(f.0), Content::Seq(ders))
        })
        .collect();
    let section = Content::Seq(vec![
        object([
            ("types", object([("infos", Content::Seq(infos))])),
            ("functions", Content::Seq(functions)),
        ]),
        Content::Map(registry),
    ]);
    serde_json::to_string(&section)
        .map_err(|e| FdbError::Internal(format!("snapshot serialisation failed: {e}")))
}

/// Reads a catalog from its JSON parts, `schema` and `derivations` (see
/// the module documentation): the schema section of a binary snapshot,
/// or the `schema` and `derived` fields of a legacy JSON one. The
/// registry is checked against the store by [`Database::from_parts`].
pub(crate) fn read_catalog(schema: &Content, derivations: &Content) -> Result<(Schema, Registry)> {
    catalog(schema, derivations).map_err(|e| {
        let why = match e {
            FdbError::Parse { message, .. } => message,
            other => other.to_string(),
        };
        corrupt(format!("schema section: {why}"))
    })
}

fn catalog(listed: &Content, derivations: &Content) -> Result<(Schema, Registry)> {
    let types = seq(field(field(listed, "types")?, "infos")?)?
        .iter()
        .map(|info| {
            let components = seq(field(info, "components")?)?.iter().map(id);
            Ok((
                string(field(info, "name")?)?,
                components.collect::<Result<Vec<_>>>()?,
            ))
        })
        .collect::<Result<Vec<_>>>()?;
    let type_name = |c: &Content| {
        let t = id(c)?;
        types
            .get(t as usize)
            .map(|&(name, _)| name)
            .ok_or_else(|| corrupt(format!("no type {t}")))
    };
    let mut schema = Schema::new();
    for f in seq(field(listed, "functions")?)? {
        let name = string(field(f, "name")?)?;
        let declared = schema.declare(
            name,
            type_name(field(f, "domain")?)?,
            type_name(field(f, "range")?)?,
            functionality(field(f, "functionality")?)?,
        )?;
        let listed_id = id(field(f, "id")?)?;
        if listed_id != declared.0 {
            return Err(corrupt(format!(
                "function {name:?} is listed as {listed_id} but declared as {}",
                declared.0
            )));
        }
    }
    let interned = schema.types();
    let replayed: Vec<(&str, Vec<u32>)> = interned
        .iter()
        .map(|(t, name)| (name, interned.components(t).iter().map(|c| c.0).collect()))
        .collect();
    if replayed != types {
        return Err(corrupt(
            "the type table is not the one the declarations intern".to_owned(),
        ));
    }
    let mut registry = Registry::new();
    let entries = derivations
        .as_map()
        .ok_or_else(|| corrupt("derivations: expected a map".to_owned()))?;
    for (f, ders) in entries {
        let ders = seq(ders)?
            .iter()
            .map(|d| {
                let steps = seq(field(d, "steps")?)?.iter().map(step);
                Derivation::new(steps.collect::<Result<_>>()?)
            })
            .collect::<Result<_>>()?;
        registry.insert(FunctionId(id(f)?), ders);
    }
    Ok((schema, registry))
}

fn step(c: &Content) -> Result<Step> {
    let function = FunctionId(id(field(c, "function")?)?);
    match string(field(c, "op")?)? {
        "Identity" => Ok(Step::identity(function)),
        "Inverse" => Ok(Step::inverse(function)),
        other => Err(corrupt(format!("unknown step operator {other:?}"))),
    }
}

/// A functionality, written as its name.
pub(crate) fn functionality(c: &Content) -> Result<Functionality> {
    let name = string(c)?;
    FUNCTIONALITIES
        .into_iter()
        .find(|&(_, n)| n == name)
        .map(|(f, _)| f)
        .ok_or_else(|| corrupt(format!("unknown functionality {name:?}")))
}

/// The field `name` of the object `c`.
pub(crate) fn field<'c>(c: &'c Content, name: &str) -> Result<&'c Content> {
    c.as_map()
        .and_then(|m| serde::map_get(m, name))
        .ok_or_else(|| corrupt(format!("missing field `{name}`")))
}

pub(crate) fn seq(c: &Content) -> Result<&[Content]> {
    c.as_seq()
        .ok_or_else(|| corrupt("expected a list".to_owned()))
}

/// A string, or a unit variant written as its name.
pub(crate) fn string(c: &Content) -> Result<&str> {
    c.as_str()
        .ok_or_else(|| corrupt("expected a string".to_owned()))
}

/// A non-negative integer, or its decimal text (a map key).
pub(crate) fn uint(c: &Content) -> Result<u64> {
    match c {
        Content::U64(n) => Ok(*n),
        Content::Str(s) => s
            .parse()
            .map_err(|_| corrupt(format!("expected an unsigned integer, got {s:?}"))),
        other => Err(corrupt(format!(
            "expected an unsigned integer, got {other:?}"
        ))),
    }
}

/// A function, type or other 32-bit id.
pub(crate) fn id(c: &Content) -> Result<u32> {
    let n = uint(c)?;
    u32::try_from(n).map_err(|_| corrupt(format!("id {n} out of range")))
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
    let section =
        serde_json::parse(r.str()?).map_err(|e| corrupt(format!("schema section: {e}")))?;
    let Some([schema, derivations]) = section.as_seq() else {
        return Err(corrupt(
            "schema section: expected [schema, derivations]".to_owned(),
        ));
    };
    let (schema, derived) = read_catalog(schema, derivations)?;
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
    Database::from_parts(
        schema,
        derived,
        store,
        ChainLimits { max_chains },
        delete_policy,
        insert_policy,
    )
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
