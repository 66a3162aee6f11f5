//! Seeded input generation: the university store and the four scripts.
//!
//! Everything the program under test receives is made here from `--seed`:
//! the same seed gives the same store and the same scripts. The generator
//! keeps its own model of the base tables (`Uni`) while it writes a
//! script, so that every insert is a new fact, every delete hits a stored
//! fact, and no operation is an error.

use fdb::types::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The functions of the university schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fun {
    Teach,
    ClassList,
    Dorm,
    Office,
    Pupil,
    TeacherOf,
    Reaches,
}

impl Fun {
    pub const ALL: [Fun; 7] = [
        Fun::Teach,
        Fun::ClassList,
        Fun::Dorm,
        Fun::Office,
        Fun::Pupil,
        Fun::TeacherOf,
        Fun::Reaches,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Fun::Teach => "teach",
            Fun::ClassList => "class_list",
            Fun::Dorm => "dorm",
            Fun::Office => "office",
            Fun::Pupil => "pupil",
            Fun::TeacherOf => "teacher_of",
            Fun::Reaches => "reaches",
        }
    }

    pub fn is_derived(self) -> bool {
        matches!(self, Fun::Pupil | Fun::TeacherOf | Fun::Reaches)
    }
}

/// `(name, domain, range, functionality)` of every function, base first.
pub const DECLARATIONS: [(Fun, &str, &str, &str); 7] = [
    (Fun::Teach, "faculty", "course", "many-many"),
    (Fun::ClassList, "course", "student", "many-many"),
    (Fun::Dorm, "student", "hall", "many-one"),
    (Fun::Office, "faculty", "building", "many-one"),
    (Fun::Pupil, "faculty", "student", "many-many"),
    (Fun::TeacherOf, "student", "faculty", "many-many"),
    (Fun::Reaches, "faculty", "hall", "many-many"),
];

/// `(derived function, steps as (base function, inverted))`.
pub const DERIVATIONS: [(Fun, &[(Fun, bool)]); 3] = [
    (Fun::Pupil, &[(Fun::Teach, false), (Fun::ClassList, false)]),
    (
        Fun::TeacherOf,
        &[(Fun::ClassList, true), (Fun::Teach, true)],
    ),
    (
        Fun::Reaches,
        &[
            (Fun::Teach, false),
            (Fun::ClassList, false),
            (Fun::Dorm, false),
        ],
    ),
];

/// One scripted operation, with its values already built.
#[derive(Clone, Debug)]
pub enum Op {
    Truth { f: Fun, x: Value, y: Value },
    Image { f: Fun, x: Value },
    InverseImage { f: Fun, y: Value },
    Insert { f: Fun, x: Value, y: Value },
    Delete { f: Fun, x: Value, y: Value },
    Begin,
    Commit,
    Abort,
}

impl Op {
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Op::Truth { .. } | Op::Image { .. } | Op::InverseImage { .. }
        )
    }

    /// The statement as FDBL text, the only form workloads 1 and 2 hand
    /// to the engine.
    pub fn fdbl(&self) -> String {
        match self {
            Op::Truth { f, x, y } => format!("TRUTH {}({x}, {y})", f.name()),
            Op::Image { f, x } => format!("QUERY {}({x})", f.name()),
            Op::InverseImage { f, y } => format!("INVERSE {}({y})", f.name()),
            Op::Insert { f, x, y } => format!("INSERT {}({x}, {y})", f.name()),
            Op::Delete { f, x, y } => format!("DELETE {}({x}, {y})", f.name()),
            Op::Begin => "BEGIN".to_owned(),
            Op::Commit => "COMMIT".to_owned(),
            Op::Abort => "ABORT".to_owned(),
        }
    }
}

/// Cardinalities of one university instance.
#[derive(Clone, Copy, Debug)]
pub struct UniSize {
    pub faculty: u32,
    pub courses: u32,
    pub students: u32,
    pub halls: u32,
    pub buildings: u32,
    pub teach_per_faculty: u32,
    pub class_per_course: u32,
}

/// The *uni* store of workloads 1, 2 and 4: about 96k base facts.
pub const UNI: UniSize = UniSize {
    faculty: 4_000,
    courses: 2_000,
    students: 20_000,
    halls: 40,
    buildings: 50,
    teach_per_faculty: 3,
    class_per_course: 30,
};

/// The store of `durable_commit`: the same shape at a tenth, about 10k
/// base facts, so that a checkpoint costs milliseconds, not tens of them.
pub const SMALL: UniSize = UniSize {
    faculty: 400,
    courses: 200,
    students: 2_000,
    halls: 40,
    buildings: 50,
    teach_per_faculty: 3,
    class_per_course: 30,
};

/// The generator's model of the base tables.
#[derive(Clone, Debug)]
pub struct Uni {
    pub size: UniSize,
    /// Courses of each faculty member.
    pub teach: Vec<Vec<u32>>,
    /// Students of each course.
    pub class: Vec<Vec<u32>>,
    /// Hall of each student.
    pub dorm: Vec<u32>,
    /// Building of each faculty member.
    pub office: Vec<u32>,
}

fn faculty(i: u32) -> Value {
    Value::atom(format!("f{i}"))
}
fn course(i: u32) -> Value {
    Value::atom(format!("c{i}"))
}
fn student(i: u32) -> Value {
    Value::atom(format!("s{i}"))
}
fn hall(i: u32) -> Value {
    Value::atom(format!("h{i}"))
}
fn building(i: u32) -> Value {
    Value::atom(format!("b{i}"))
}
/// A student no generated store holds: fresh inserts never collide.
fn new_student(i: u32) -> Value {
    Value::atom(format!("n{i}"))
}
fn new_faculty(i: u32) -> Value {
    Value::atom(format!("g{i}"))
}

/// Deals `copies` copies of each of `0..items` into bins of `per_bin`
/// with no item twice in a bin. Every item lands in exactly `copies` bins
/// and every bin holds exactly `per_bin` items, so each key of the store
/// costs a query the same whatever the seed: the seed permutes the store,
/// it does not reshape it.
fn deal(rng: &mut StdRng, items: u32, copies: u32, per_bin: u32) -> Vec<Vec<u32>> {
    let mut slots: Vec<u32> = (0..items)
        .flat_map(|i| std::iter::repeat_n(i, copies as usize))
        .collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.gen_range(0..=i));
    }
    let per_bin = per_bin as usize;
    assert_eq!(slots.len() % per_bin, 0, "the copies fill the bins exactly");
    loop {
        let mut clean = true;
        for start in (0..slots.len()).step_by(per_bin) {
            for j in start + 1..start + per_bin {
                if slots[start..j].contains(&slots[j]) {
                    let other = rng.gen_range(0..slots.len());
                    slots.swap(j, other);
                    clean = false;
                }
            }
        }
        if clean {
            break;
        }
    }
    slots.chunks(per_bin).map(<[u32]>::to_vec).collect()
}

/// An index in `0..n`, squared-uniform: low indices repeat, high ones are
/// rare, so a cache sees both repeated and cold keys.
fn skewed(rng: &mut StdRng, n: u32) -> u32 {
    let u: f64 = rng.gen_range(0.0..1.0);
    ((u * u * f64::from(n)) as u32).min(n - 1)
}

/// Deals kinds in exact proportion: every `weights.sum()` draws hold kind
/// `k` exactly `weights[k]` times, in a shuffled order. A script's mix is
/// then the same for every seed, and only its order and keys differ;
/// drawing each kind at random would move the share of the expensive
/// statements, and with it every per-operation figure, by several percent
/// from seed to seed.
struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(weights: &[usize]) -> Deck {
        let cards = weights
            .iter()
            .enumerate()
            .flat_map(|(kind, &w)| std::iter::repeat_n(kind, w))
            .collect();
        Deck { cards, next: 0 }
    }

    fn draw(&mut self, rng: &mut StdRng) -> usize {
        if self.next == 0 {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.gen_range(0..=i));
            }
        }
        let kind = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        kind
    }
}

impl Uni {
    pub fn generate(size: UniSize, rng: &mut StdRng) -> Uni {
        let teach_slots = size.faculty * size.teach_per_faculty;
        let class_slots = size.courses * size.class_per_course;
        let teach = deal(
            rng,
            size.courses,
            teach_slots / size.courses,
            size.teach_per_faculty,
        );
        let class = deal(
            rng,
            size.students,
            class_slots / size.students,
            size.class_per_course,
        );
        let dorm = deal(rng, size.halls, size.students / size.halls, 1);
        let office = deal(rng, size.buildings, size.faculty / size.buildings, 1);
        Uni {
            size,
            teach,
            class,
            dorm: dorm.into_iter().map(|b| b[0]).collect(),
            office: office.into_iter().map(|b| b[0]).collect(),
        }
    }

    /// Every base fact as an insert, table by table.
    pub fn load_ops(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for (f, cs) in self.teach.iter().enumerate() {
            for &c in cs {
                ops.push(Op::Insert {
                    f: Fun::Teach,
                    x: faculty(f as u32),
                    y: course(c),
                });
            }
        }
        for (c, ss) in self.class.iter().enumerate() {
            for &s in ss {
                ops.push(Op::Insert {
                    f: Fun::ClassList,
                    x: course(c as u32),
                    y: student(s),
                });
            }
        }
        for (s, &h) in self.dorm.iter().enumerate() {
            ops.push(Op::Insert {
                f: Fun::Dorm,
                x: student(s as u32),
                y: hall(h),
            });
        }
        for (f, &b) in self.office.iter().enumerate() {
            ops.push(Op::Insert {
                f: Fun::Office,
                x: faculty(f as u32),
                y: building(b),
            });
        }
        ops
    }

    /// A faculty member who teaches a course that has a student, and one
    /// such student: a `pupil` fact that holds in the model.
    fn holding_pupil(&self, rng: &mut StdRng) -> (u32, u32) {
        loop {
            let f = skewed(rng, self.size.faculty);
            let cs = &self.teach[f as usize];
            if cs.is_empty() {
                continue;
            }
            let ss = &self.class[cs[rng.gen_range(0..cs.len())] as usize];
            if ss.is_empty() {
                continue;
            }
            return (f, ss[rng.gen_range(0..ss.len())]);
        }
    }

    /// `TRUTH pupil` of a pair that holds in the model (`hit`) or of one
    /// drawn at random, which almost never does.
    fn truth_pupil(&self, rng: &mut StdRng, hit: bool) -> Op {
        let (f, s) = if hit {
            self.holding_pupil(rng)
        } else {
            (
                skewed(rng, self.size.faculty),
                rng.gen_range(0..self.size.students),
            )
        };
        Op::Truth {
            f: Fun::Pupil,
            x: faculty(f),
            y: student(s),
        }
    }

    /// `DELETE pupil` of a pair that holds in the model.
    fn delete_pupil(&self, rng: &mut StdRng) -> Op {
        let (f, s) = self.holding_pupil(rng);
        Op::Delete {
            f: Fun::Pupil,
            x: faculty(f),
            y: student(s),
        }
    }

    /// `INSERT pupil` of a pair drawn at random.
    fn insert_pupil(&self, rng: &mut StdRng) -> Op {
        Op::Insert {
            f: Fun::Pupil,
            x: faculty(rng.gen_range(0..self.size.faculty)),
            y: student(rng.gen_range(0..self.size.students)),
        }
    }

    /// A `teach` fact the model does not hold, recorded in the model.
    fn fresh_teach(&mut self, rng: &mut StdRng) -> Op {
        loop {
            let f = skewed(rng, self.size.faculty);
            let c = rng.gen_range(0..self.size.courses);
            if !self.teach[f as usize].contains(&c) {
                self.teach[f as usize].push(c);
                return Op::Insert {
                    f: Fun::Teach,
                    x: faculty(f),
                    y: course(c),
                };
            }
        }
    }

    /// A `class_list` fact the model does not hold, recorded in the model.
    fn fresh_class(&mut self, rng: &mut StdRng) -> Op {
        loop {
            let c = skewed(rng, self.size.courses);
            let s = rng.gen_range(0..self.size.students);
            if !self.class[c as usize].contains(&s) {
                self.class[c as usize].push(s);
                return Op::Insert {
                    f: Fun::ClassList,
                    x: course(c),
                    y: student(s),
                };
            }
        }
    }

    /// Deletes a stored `class_list` fact, in the model too.
    fn drop_class(&mut self, rng: &mut StdRng) -> Op {
        loop {
            let c = skewed(rng, self.size.courses);
            let ss = &mut self.class[c as usize];
            if ss.len() > 1 {
                let s = ss.swap_remove(rng.gen_range(0..ss.len()));
                return Op::Delete {
                    f: Fun::ClassList,
                    x: course(c),
                    y: student(s),
                };
            }
        }
    }
}

pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream),
    )
}

/// Of four `TRUTH pupil` statements, three ask for a pair that holds.
const TRUTH_HITS: [usize; 2] = [3, 1];

/// Workload 1: 95 % reads over the derived functions, 5 % base writes
/// inside their support set.
pub fn read_mix_script(uni: &Uni, rng: &mut StdRng, n_ops: usize) -> Vec<Op> {
    let mut model = uni.clone();
    let size = uni.size;
    // Per hundred statements: TRUTH pupil (hit, miss), QUERY pupil,
    // INVERSE pupil, TRUTH reaches, QUERY teacher_of, INSERT teach,
    // DELETE class_list.
    let mut deck = Deck::new(&[30, 10, 25, 15, 10, 5, 3, 2]);
    (0..n_ops)
        .map(|_| match deck.draw(rng) {
            0 => model.truth_pupil(rng, true),
            1 => model.truth_pupil(rng, false),
            2 => Op::Image {
                f: Fun::Pupil,
                x: faculty(skewed(rng, size.faculty)),
            },
            3 => Op::InverseImage {
                f: Fun::Pupil,
                y: student(skewed(rng, size.students)),
            },
            4 => {
                let (f, s) = model.holding_pupil(rng);
                Op::Truth {
                    f: Fun::Reaches,
                    x: faculty(f),
                    y: hall(model.dorm[s as usize]),
                }
            }
            5 => Op::Image {
                f: Fun::TeacherOf,
                x: student(skewed(rng, size.students)),
            },
            6 => model.fresh_teach(rng),
            _ => model.drop_class(rng),
        })
        .collect()
}

/// Set-up of workload 2 beyond the base load: derived deletes of facts
/// that hold (negated conjunctions) and derived inserts (null-valued
/// chains), so that the measured reads meet partial information.
pub fn update_mix_prelude(uni: &Uni, rng: &mut StdRng) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..300).map(|_| uni.delete_pupil(rng)).collect();
    ops.extend((0..1_000).map(|_| uni.insert_pupil(rng)));
    ops
}

/// Statements between `BEGIN` and `COMMIT`/`ABORT` in workload 2.
const TXN_STATEMENTS: usize = 16;

/// Workload 2: transactions of base and derived updates beside reads;
/// every eighth transaction aborts.
pub fn update_mix_script(uni: &Uni, rng: &mut StdRng, n_txns: usize) -> Vec<Op> {
    let mut model = uni.clone();
    // Per hundred statements: INSERT teach, INSERT class_list, DELETE
    // class_list, DELETE pupil, INSERT pupil, TRUTH pupil (hit, miss).
    let mut deck = Deck::new(&[18, 17, 15, 15, 10, 19, 6]);
    let mut ops = Vec::with_capacity(n_txns * (TXN_STATEMENTS + 2));
    for t in 0..n_txns {
        let aborts = t % 8 == 7;
        // An aborted transaction leaves the store as it was, so the model
        // must not keep its updates either.
        let before = aborts.then(|| model.clone());
        ops.push(Op::Begin);
        for _ in 0..TXN_STATEMENTS {
            ops.push(match deck.draw(rng) {
                0 => model.fresh_teach(rng),
                1 => model.fresh_class(rng),
                2 => model.drop_class(rng),
                3 => model.delete_pupil(rng),
                4 => model.insert_pupil(rng),
                5 => model.truth_pupil(rng, true),
                _ => model.truth_pupil(rng, false),
            });
        }
        match before {
            Some(m) => {
                model = m;
                ops.push(Op::Abort);
            }
            None => ops.push(Op::Commit),
        }
    }
    ops
}

/// Data records between two checkpoints under `DurabilityConfig::default()`.
pub const CHECKPOINT_EVERY: usize = 1_024;
/// Updates inside one `begin…commit` frame of workload 3.
const FRAME_UPDATES: usize = 8;
const FRAMES_PER_BLOCK: usize = 27;
const READS_PER_BLOCK: usize = 120;
/// Blocks per round of workload 3: one checkpoint each.
const DURABLE_BLOCKS: usize = 16;

/// Workload 3: `DURABLE_BLOCKS` blocks of exactly `CHECKPOINT_EVERY` data
/// records. No frame straddles a block end, so a checkpoint fires on the
/// last update of every block and every round takes the same sixteen.
/// The first half of the blocks inserts fresh `class_list` facts and the
/// second half deletes them in the same order: the round ends in the
/// state it started from.
pub fn durable_script(uni: &Uni, rng: &mut StdRng) -> Vec<Op> {
    let half = DURABLE_BLOCKS / 2;
    let mut fresh: Vec<(Value, Value)> = Vec::with_capacity(half * CHECKPOINT_EVERY);
    for i in 0..(half * CHECKPOINT_EVERY) as u32 {
        fresh.push((course(rng.gen_range(0..uni.size.courses)), new_student(i)));
    }
    let mut hits = Deck::new(&TRUTH_HITS);
    let mut ops = Vec::new();
    for block in 0..DURABLE_BLOCKS {
        let facts = &fresh[(block % half) * CHECKPOINT_EVERY..][..CHECKPOINT_EVERY];
        let update = |k: usize| {
            let (x, y) = facts[k].clone();
            if block < half {
                Op::Insert {
                    f: Fun::ClassList,
                    x,
                    y,
                }
            } else {
                Op::Delete {
                    f: Fun::ClassList,
                    x,
                    y,
                }
            }
        };
        // Lay the block out as slots: a frame, a single update or a read,
        // shuffled, with a single update kept for the block's last record.
        #[derive(Clone, Copy)]
        enum Slot {
            Frame,
            Single,
            Read,
        }
        let singles = CHECKPOINT_EVERY - FRAMES_PER_BLOCK * FRAME_UPDATES;
        let mut slots = vec![Slot::Frame; FRAMES_PER_BLOCK];
        slots.extend(std::iter::repeat_n(Slot::Single, singles - 1));
        slots.extend(std::iter::repeat_n(Slot::Read, READS_PER_BLOCK));
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.gen_range(0..=i));
        }
        slots.push(Slot::Single);
        let mut k = 0;
        for slot in slots {
            match slot {
                Slot::Frame => {
                    ops.push(Op::Begin);
                    for _ in 0..FRAME_UPDATES {
                        ops.push(update(k));
                        k += 1;
                    }
                    ops.push(Op::Commit);
                }
                Slot::Single => {
                    ops.push(update(k));
                    k += 1;
                }
                Slot::Read => {
                    let hit = hits.draw(rng) == 0;
                    ops.push(uni.truth_pupil(rng, hit));
                }
            }
        }
        assert_eq!(k, CHECKPOINT_EVERY, "a block is one checkpoint interval");
    }
    ops
}

/// Reads before each write of workload 4.
pub const CHURN_READS: usize = 4;
/// Operations per group of workload 4: three bursts of reads, each
/// followed by a write.
pub const CHURN_GROUP_OPS: usize = 3 * (CHURN_READS + 1);

/// Workload 4: groups of three writes, to the big table, the big table
/// and the small one, each after a burst of reads: the first burst on one
/// pin held over the group, the others on a fresh pin per read. Two writes
/// in three go to the big table, so that the median write is one of them
/// and not a point between two modes; reads come in bursts because the
/// first read after a write finds the caches emptied by the table copy,
/// and a single read per write would make the median read that one. The
/// second half of the groups deletes what the first half inserted.
pub fn churn_script(uni: &Uni, rng: &mut StdRng, groups: usize) -> Vec<Op> {
    let half = groups / 2;
    let big = |rng: &mut StdRng, i: u32| {
        (
            Fun::ClassList,
            course(rng.gen_range(0..uni.size.courses)),
            new_student(i),
        )
    };
    let fresh: Vec<[(Fun, Value, Value); 3]> = (0..half as u32)
        .map(|i| {
            [
                big(rng, 2 * i),
                big(rng, 2 * i + 1),
                (
                    Fun::Office,
                    new_faculty(i),
                    building(rng.gen_range(0..uni.size.buildings)),
                ),
            ]
        })
        .collect();
    let mut hits = Deck::new(&TRUTH_HITS);
    let mut ops = Vec::with_capacity(groups * CHURN_GROUP_OPS);
    for g in 0..half * 2 {
        for (f, x, y) in fresh[g % half].clone() {
            for _ in 0..CHURN_READS {
                let hit = hits.draw(rng) == 0;
                ops.push(uni.truth_pupil(rng, hit));
            }
            ops.push(if g < half {
                Op::Insert { f, x, y }
            } else {
                Op::Delete { f, x, y }
            });
        }
    }
    ops
}
