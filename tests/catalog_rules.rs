//! The engine and `fdb-check` judge `DECLARE`, `DERIVE` and `EVAL` by one
//! rulebook: the engine refuses such a line exactly when the analyzer
//! reports one of `FDB001`–`FDB008` on it (or `FDB000` for a
//! functionality literal that does not parse), and with the same rule.
//!
//! Each script runs line by line through [`Engine::execute_line`]. Before
//! a rule line runs, the analyzer reads the lines that ran so far (a
//! refused line is blank) and then the line itself, on top of the catalog
//! the engine had when the last `SOURCE` or `LOAD` ended; its findings on
//! that line are compared with the engine's answer. The scripts are every
//! shipped one, a dozen probes of the rules' order and a seeded set of
//! generated ones.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fdb::check::{analyze_script_in, CheckConfig, CheckStmt, Code, World};
use fdb::core::Database;
use fdb::lang::{lower_script, Engine};
use fdb::types::FdbError;

/// What the analyzer starts from after the engine read facts from
/// outside the script: its catalog and which tables hold facts.
fn world_of(db: &Database) -> World {
    let schema = db.schema();
    World {
        schema: schema.clone(),
        derived: db
            .derived_functions()
            .into_iter()
            .map(|f| (f, db.derivations(f).to_vec()))
            .collect(),
        populated: schema
            .functions()
            .iter()
            .map(|def| def.id)
            .filter(|&f| !db.store().table(f).is_empty())
            .collect(),
    }
}

/// The code of the rule an engine refusal names, or `None` for a
/// governed stop, which no rule decides.
fn rule_of(e: &FdbError) -> Option<Code> {
    Some(match e {
        FdbError::ParseFunctionality(_) => Code::Syntax,
        FdbError::UnknownFunction(_) => Code::UndefinedFunction,
        FdbError::DuplicateFunction(_) => Code::DuplicateDeclare,
        FdbError::MalformedDerivation(why) => {
            let rules = [
                ("expects domain", Code::BrokenChain),
                ("wrong endpoints", Code::EndpointMismatch),
                ("has functionality", Code::FunctionalityMismatch),
                ("mentions itself", Code::SelfReferential),
                ("derived function", Code::StepThroughDerived),
                ("uses it", Code::StepThroughDerived),
                ("non-empty", Code::ShadowsFacts),
            ];
            rules
                .iter()
                .find(|(words, _)| why.contains(words))
                .map(|&(_, code)| code)
                .unwrap_or_else(|| panic!("a refusal no rule names: {why}"))
        }
        e if e.is_governed_stop() || matches!(e, FdbError::TxnAborted { .. }) => return None,
        e => panic!("a refusal no rule names: {e:?}"),
    })
}

fn is_rule_code(code: Code) -> bool {
    matches!(
        code,
        Code::Syntax
            | Code::UndefinedFunction
            | Code::DuplicateDeclare
            | Code::BrokenChain
            | Code::EndpointMismatch
            | Code::FunctionalityMismatch
            | Code::SelfReferential
            | Code::StepThroughDerived
            | Code::ShadowsFacts
    )
}

/// How many rule lines a run compared, and how many the engine refused
/// by each rule.
#[derive(Default)]
struct Tally {
    compared: usize,
    refused: BTreeMap<Code, usize>,
}

impl Tally {
    fn refused(&self) -> usize {
        self.refused.values().sum()
    }
}

/// Runs `script` through a fresh engine and compares every rule line.
fn differential(name: &str, script: &str, tmp: &str, tally: &mut Tally) {
    let mut engine = Engine::new();
    let mut world = World::default();
    let mut ran = String::new();
    for (n, line) in script.lines().enumerate() {
        let line = line.replace("$TMP", tmp);
        let lowered = lower_script(&line).0;
        let rule_line = matches!(
            lowered.first(),
            Some(CheckStmt::Declare { .. } | CheckStmt::Derive { .. } | CheckStmt::Eval { .. })
        );
        let findings = rule_line.then(|| {
            let text = format!("{ran}{line}\n");
            let at = text.lines().count() as u32;
            let (stmts, _) = lower_script(&text);
            let diags = analyze_script_in(&world, &stmts, &CheckConfig::default());
            diags
                .iter()
                .filter(|d| d.span.line == at && is_rule_code(d.code))
                .map(|d| d.code)
                .collect::<Vec<_>>()
        });
        let result = engine.execute_line(&line);
        if let Some(codes) = findings {
            let context = format!(
                "{name}:{}: `{line}` -> {result:?}, analyzer {codes:?}",
                n + 1
            );
            match &result {
                Ok(_) => assert!(codes.is_empty(), "{context}"),
                Err(e) => {
                    if let Some(code) = rule_of(e) {
                        assert!(codes.contains(&code), "{context}");
                        assert!(codes.iter().all(|&c| c == code), "{context}");
                        *tally.refused.entry(code).or_default() += 1;
                    }
                }
            }
            tally.compared += 1;
        }
        let opens_world = matches!(
            lowered.first(),
            Some(CheckStmt::Other {
                opens_world: true,
                ..
            })
        );
        if opens_world {
            world = world_of(engine.database());
            ran.clear();
        } else if result.is_ok() {
            ran.push_str(&line);
            ran.push('\n');
        } else {
            ran.push('\n');
        }
    }
}

#[test]
fn shipped_scripts_meet_one_rulebook() {
    let tmp = std::env::temp_dir().join(format!("fdb_catalog_rules_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    // The statement matrix's `DUMP TRACE` writes into the armed directory.
    fdb::obs::flight::set_dump_dir(Some(tmp.clone()));
    let mut tally = Tally::default();
    for dir in ["tests/scripts", "examples/scripts"] {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "fdb"))
            .collect();
        paths.sort();
        for path in paths {
            let script = std::fs::read_to_string(&path).unwrap();
            let name = path.display().to_string();
            differential(&name, &script, tmp.to_str().unwrap(), &mut tally);
        }
    }
    fdb::obs::flight::set_dump_dir(None);
    std::fs::remove_dir_all(&tmp).ok();
    eprintln!(
        "shipped: {} compared, {:?} refused",
        tally.compared, tally.refused
    );
    assert!(tally.compared >= 40, "{}", tally.compared);
    assert!(tally.refused() >= 6, "{:?}", tally.refused);
}

const UNI: &str = "DECLARE teach: faculty -> course (many-many)\n\
                   DECLARE class_list: course -> student (many-many)\n\
                   DECLARE pupil: faculty -> student (many-many)\n\
                   DECLARE advises: faculty -> student (many-many)\n\
                   DECLARE lectures: faculty -> course (many-many)\n";

/// The cases where the order of the rules, or the state the rules read,
/// decides the answer.
const PROBES: [(&str, &str); 12] = [
    (
        "insert, delete, derive",
        "INSERT pupil(a, b)\nDELETE pupil(a, b)\nDERIVE pupil = teach o class_list",
    ),
    (
        "derive, insert, rederive",
        "DERIVE pupil = teach o class_list\nINSERT pupil(a, b)\nDERIVE pupil = advises",
    ),
    (
        "derive, insert, rederive the other way",
        "DERIVE pupil = advises\nINSERT pupil(a, b)\nDERIVE pupil = teach o class_list",
    ),
    ("self and unknown", "DERIVE pupil = pupil o ghost"),
    ("unknown and self", "DERIVE pupil = ghost o pupil"),
    (
        "a break before the self",
        "DERIVE pupil = teach o teach o pupil",
    ),
    ("a known step, then unknown", "DERIVE pupil = teach o ghost"),
    (
        "an insert rolled back",
        "BEGIN\nINSERT pupil(a, b)\nROLLBACK\nDERIVE pupil = teach o class_list",
    ),
    (
        "derived delete, rederive",
        "DERIVE pupil = teach o class_list\nDELETE pupil(a, b)\nDERIVE pupil = advises",
    ),
    (
        "derived delete with support, rederive",
        "DERIVE pupil = teach o class_list\nINSERT teach(a, c)\nINSERT class_list(c, b)\n\
         DELETE pupil(a, b)\nDERIVE pupil = advises",
    ),
    (
        "derive a step after a derived insert",
        "DERIVE pupil = teach o class_list\nINSERT pupil(a, b)\nDERIVE teach = lectures",
    ),
    (
        "the same derivation twice",
        "DERIVE pupil = teach o class_list\nDERIVE pupil = teach o class_list",
    ),
];

#[test]
fn probes_meet_one_rulebook() {
    let mut tally = Tally::default();
    for (name, body) in PROBES {
        differential(name, &format!("{UNI}{body}"), "", &mut tally);
    }
    assert_eq!(tally.compared, 5 * PROBES.len() + 18);
    assert_eq!(tally.refused(), 5, "{:?}", tally.refused);
}

fn pick(rng: &mut StdRng, options: &[&'static str]) -> &'static str {
    options[rng.gen_range(0..options.len())]
}

/// `n` random steps, some inverted.
fn random_steps(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| {
            let f = pick(rng, &FUNCTIONS);
            if rng.gen_range(0..2) == 0 {
                f.to_owned()
            } else {
                format!("{f}^-1")
            }
        })
        .collect::<Vec<_>>()
        .join(" o ")
}

const FUNCTIONS: [&str; 4] = ["f", "g", "h", "k"];

/// A random script over four functions and three types: a `DECLARE`
/// of each function first, most of them many-many so that derivations
/// compose to the declared functionality, then random statements.
fn random_script(rng: &mut StdRng) -> String {
    const TYPES: [&str; 3] = ["a", "b", "c"];
    const FUNCTIONALITIES: [&str; 8] = [
        "many-many",
        "many-many",
        "many-many",
        "many-many",
        "one-one",
        "one-many",
        "many-one",
        "sideways",
    ];
    const VALUES: [&str; 3] = ["x", "y", "z"];
    const KINDS: [&str; 11] = [
        "declare", "derive", "derive", "derive", "insert", "insert", "delete", "eval", "begin",
        "rollback", "commit",
    ];
    let declare = |rng: &mut StdRng, f: &str| {
        format!(
            "DECLARE {f}: {} -> {} ({})",
            pick(rng, &TYPES),
            pick(rng, &TYPES),
            pick(rng, &FUNCTIONALITIES)
        )
    };
    let mut lines: Vec<String> = FUNCTIONS.iter().map(|f| declare(rng, f)).collect();
    for _ in 0..rng.gen_range(6..20) {
        let line = match pick(rng, &KINDS) {
            "declare" => {
                let f = pick(rng, &FUNCTIONS);
                declare(rng, f)
            }
            "derive" => {
                let f = pick(rng, &FUNCTIONS);
                let n = rng.gen_range(1..4);
                format!("DERIVE {f} = {}", random_steps(rng, n))
            }
            "eval" => {
                let x = pick(rng, &VALUES);
                let n = rng.gen_range(1..4);
                format!("EVAL {x} : {}", random_steps(rng, n))
            }
            "insert" | "delete" => format!(
                "{} {}({}, {})",
                if rng.gen_range(0..3) == 0 {
                    "DELETE"
                } else {
                    "INSERT"
                },
                pick(rng, &FUNCTIONS),
                pick(rng, &VALUES),
                pick(rng, &VALUES)
            ),
            "begin" => "BEGIN".to_owned(),
            "rollback" => "ROLLBACK".to_owned(),
            _ => "COMMIT".to_owned(),
        };
        lines.push(line);
    }
    lines.join("\n")
}

#[test]
fn generated_scripts_meet_one_rulebook() {
    let mut rng = StdRng::seed_from_u64(0x5eed_ca7a);
    let mut tally = Tally::default();
    for i in 0..500 {
        let script = random_script(&mut rng);
        differential(&format!("script {i}"), &script, "", &mut tally);
    }
    // Most generated rule lines are refused; enough of them run.
    eprintln!(
        "generated: {} compared, {:?} refused",
        tally.compared, tally.refused
    );
    assert!(tally.compared > 3_000, "{}", tally.compared);
    assert!(
        tally.compared - tally.refused() > 500,
        "{:?}",
        tally.refused
    );
    // Every rule refuses some generated line.
    assert_eq!(tally.refused.len(), 9, "{:?}", tally.refused);
}
