//! The schema section of a binary snapshot: the catalog (object types,
//! function definitions and the derivations of the derived functions)
//! as JSON text between the magic and the limits.
//!
//! `fixtures/catalog.snap` is the snapshot of [`catalog_database`] as the
//! serde-derive writer laid it out, recorded before that writer was
//! replaced by the hand-written one: a compound type, all four
//! functionalities, a derivation with an inverse step, two derivations
//! of one function and a function name holding `"`, `\` and a non-ASCII
//! character. Decoding and re-encoding it, and encoding the database
//! afresh, must give the recorded bytes.
//!
//! The rest of the file edits the schema section of valid snapshots into
//! catalogs the statement path refuses, re-seals them with a correct
//! checksum, and requires each to be refused as a parse error naming the
//! section, never loaded (the next query would panic on it).

use fdb::core::wal::crc32;
use fdb::core::Database;
use fdb::types::codec::{put_str, Reader};
use fdb::types::{Derivation, FdbError, Functionality, Schema, Step, Value};

const FIXTURE: &[u8] = include_bytes!("fixtures/catalog.snap");

fn v(s: &str) -> Value {
    Value::atom(s)
}

/// The database `fixtures/catalog.snap` holds.
fn catalog_database() -> Database {
    let mut schema = Schema::new();
    let declare = |schema: &mut Schema, name, domain, range, functionality| {
        schema
            .declare(name, domain, range, functionality)
            .expect("a fresh name")
    };
    let pair = declare(&mut schema, "pair", "[a; b]", "a", Functionality::ManyOne);
    let spread = declare(&mut schema, "spread", "a", "[a; b]", Functionality::OneMany);
    let link = declare(&mut schema, "link", "a", "b", Functionality::OneOne);
    let back = declare(&mut schema, "back", "b", "a", Functionality::OneOne);
    let odd = declare(
        &mut schema,
        "q\"uote\\slash_é",
        "b",
        "b",
        Functionality::ManyMany,
    );
    let same = declare(&mut schema, "same", "a", "b", Functionality::OneOne);
    let reach = declare(&mut schema, "reach", "[a; b]", "b", Functionality::ManyOne);
    let mut db = Database::new(schema);
    db.register_derived(
        same,
        vec![
            Derivation::single(Step::identity(link)),
            Derivation::single(Step::inverse(back)),
        ],
    )
    .unwrap();
    db.register_derived(
        reach,
        vec![Derivation::new(vec![Step::identity(pair), Step::identity(link)]).unwrap()],
    )
    .unwrap();
    db.insert(pair, v("[x; y]"), v("x")).unwrap();
    db.insert(spread, v("x"), v("[x; y]")).unwrap();
    db.insert(back, v("y"), v("x")).unwrap();
    db.insert(odd, v("y"), v("y")).unwrap();
    db.insert(same, v("x"), v("y")).unwrap();
    db.insert(reach, v("[z; w]"), v("w")).unwrap();
    db
}

#[test]
fn recorded_catalog_re_encodes_to_its_bytes() {
    let loaded = Database::from_snapshot(FIXTURE).unwrap();
    assert_eq!(loaded.to_snapshot().unwrap(), FIXTURE);
    assert_eq!(catalog_database().to_snapshot().unwrap(), FIXTURE);
    let odd = loaded.resolve("q\"uote\\slash_é").unwrap();
    assert_eq!(
        loaded.schema().render_def(odd),
        "q\"uote\\slash_é: b -> b; (many - many)"
    );
    let same = loaded.resolve("same").unwrap();
    assert_eq!(loaded.derivations(same).len(), 2);
    assert_eq!(
        loaded.derivations(same)[1].render(loaded.schema()),
        "back^-1"
    );
    let reach = loaded.resolve("reach").unwrap();
    assert_eq!(
        loaded
            .schema()
            .type_name(loaded.schema().function(reach).domain),
        "[a; b]"
    );
    assert_eq!(
        loaded.truth(reach, &v("[z; w]"), &v("w")).unwrap(),
        fdb::storage::Truth::True
    );
}

/// The schema section of `bytes`, and the bytes after it up to the
/// checksum.
fn split(bytes: &[u8]) -> (String, Vec<u8>) {
    let body = &bytes[8..bytes.len() - 4];
    let mut r = Reader::new(body);
    let section = r.str().unwrap().to_owned();
    let rest = body[body.len() - r.remaining()..].to_vec();
    (section, rest)
}

/// A CRC-valid snapshot of `section` followed by `rest`.
fn seal(section: &str, rest: &[u8]) -> Vec<u8> {
    let mut out = b"FDBSNAP1".to_vec();
    put_str(&mut out, section);
    out.extend_from_slice(rest);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// `teach`, `class_list` and `pupil = teach o class_list`, with a fact.
fn university() -> Database {
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
    db.insert(p, v("euclid"), v("john")).unwrap();
    db
}

const PUPIL_STEPS: &str = r#"{"op":"Identity","function":0},{"op":"Identity","function":1}"#;

/// Each edit of the university's schema section: what it breaks, the
/// text it replaces and by what, and what the refusal says.
const DAMAGED_CATALOGS: [(&str, &str, &str, &str); 10] = [
    ("an empty derivation", PUPIL_STEPS, "", "at least one step"),
    (
        "a step naming no function",
        PUPIL_STEPS,
        r#"{"op":"Identity","function":0},{"op":"Identity","function":99}"#,
        "names no function F99",
    ),
    (
        "a domain naming no type",
        r#""name":"teach","domain":0"#,
        r#""name":"teach","domain":42"#,
        "no type 42",
    ),
    (
        "an id that is not the position",
        r#""id":1,"name":"class_list""#,
        r#""id":2,"name":"class_list""#,
        "listed as 2 but declared as 1",
    ),
    (
        "a type table the declarations do not intern",
        r#"{"name":"student","components":[]}"#,
        r#"{"name":"student","components":[0]}"#,
        "type table",
    ),
    (
        "a derivation with the wrong endpoints",
        PUPIL_STEPS,
        r#"{"op":"Identity","function":0}"#,
        "wrong endpoints",
    ),
    (
        "a derivation with the wrong functionality",
        r#""name":"pupil","domain":0,"range":2,"functionality":"ManyMany""#,
        r#""name":"pupil","domain":0,"range":2,"functionality":"OneOne""#,
        "is declared one-one",
    ),
    (
        "a derivation mentioning its own function",
        PUPIL_STEPS,
        r#"{"op":"Identity","function":2}"#,
        "mentions itself",
    ),
    (
        "a derivation stepping through a derived function",
        r#"{"2":["#,
        r#"{"1":[{"steps":[{"op":"Inverse","function":0},{"op":"Identity","function":2}]}],"2":["#,
        "uses derived function pupil",
    ),
    (
        "more functions than the store has tables",
        r#""functionality":"ManyMany"}]"#,
        r#""functionality":"ManyMany"},{"id":3,"name":"extra","domain":0,"range":1,"functionality":"OneOne"}]"#,
        "4 functions but 3 tables",
    ),
];

fn assert_refused(result: Result<Database, FdbError>, case: &str, why: &str) {
    match result {
        Err(FdbError::Parse { message, .. }) => assert!(
            message.contains("schema section") && message.contains(why),
            "{case}: {message}"
        ),
        Err(other) => panic!("{case}: not a parse error: {other}"),
        Ok(_) => panic!("{case}: loaded"),
    }
}

#[test]
fn binary_snapshot_refuses_a_catalog_the_statement_path_refuses() {
    let (section, rest) = split(&university().to_snapshot().unwrap());
    assert!(Database::from_snapshot(&seal(&section, &rest)).is_ok());
    for (case, from, to, why) in DAMAGED_CATALOGS {
        assert!(section.contains(from), "{case}: {section}");
        let damaged = seal(&section.replacen(from, to, 1), &rest);
        assert_refused(Database::from_snapshot(&damaged), case, why);
    }
}

#[test]
fn json_snapshot_refuses_a_catalog_the_statement_path_refuses() {
    let json = include_str!("fixtures/legacy/corpus/07.json");
    assert!(json.contains(PUPIL_STEPS));
    let damaged = json.replacen(PUPIL_STEPS, "", 1);
    assert_refused(
        Database::from_snapshot(damaged.as_bytes()),
        "JSON",
        "at least one step",
    );
}
