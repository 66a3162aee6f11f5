//! The undirected function multigraph.
//!
//! Vertices are object types ([`TypeId`]); each edge carries the function
//! it represents, oriented by the function's declared domain → range. The
//! graph is a *multigraph*: two functions with the same endpoints (such as
//! `teach : faculty → course` and `taught_by : course → faculty`) are two
//! parallel edges, and that parallelism is itself a cycle of length two —
//! exactly how the design aid of §2.3 discovers that `taught_by` is
//! derivable as `teach⁻¹`.
//!
//! Edges can be removed (when the designer or AMS classifies a function as
//! derived) and re-added; removal is a tombstone so [`EdgeId`]s stay
//! stable over the life of a design session.

use std::collections::HashMap;
use std::fmt;

use fdb_types::{FunctionId, Functionality, Schema, TypeId};

/// Dense identifier of an edge within one [`FunctionGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Direction of traversal of an edge relative to its declared orientation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Dir {
    /// Domain → range: the function applied as declared (identity).
    Forward,
    /// Range → domain: the function's inverse.
    Backward,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Forward => Dir::Backward,
            Dir::Backward => Dir::Forward,
        }
    }
}

/// Provenance of an edge's functionality: declared by the schema, or
/// tightened by a data-discovered (non-genuine) functional dependency.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum EdgeKind {
    /// The functionality is the schema's declaration — guaranteed by the
    /// engine's update machinery (genuine).
    #[default]
    Declared,
    /// The functionality was tightened from an FD observed to hold in the
    /// current extension (non-genuine): true today, invalidated by the
    /// next violating write. Design passes must never report advisory
    /// conclusions as schema facts.
    Advisory,
}

/// One edge of the function graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    /// This edge's identifier.
    pub id: EdgeId,
    /// The function the edge represents.
    pub function: FunctionId,
    /// Declared domain type (the `a` endpoint).
    pub a: TypeId,
    /// Declared range type (the `b` endpoint).
    pub b: TypeId,
    /// Effective functionality, oriented `a → b`. Equal to the schema's
    /// declaration unless `kind` is [`EdgeKind::Advisory`].
    pub functionality: Functionality,
    /// Where the functionality came from (declared vs advisory).
    pub kind: EdgeKind,
}

impl Edge {
    /// Effective functionality when traversing the edge in `dir`.
    pub fn functionality_along(&self, dir: Dir) -> Functionality {
        match dir {
            Dir::Forward => self.functionality,
            Dir::Backward => self.functionality.inverse(),
        }
    }

    /// The endpoint reached when traversing in `dir`.
    pub fn target(&self, dir: Dir) -> TypeId {
        match dir {
            Dir::Forward => self.b,
            Dir::Backward => self.a,
        }
    }

    /// The endpoint departed from when traversing in `dir`.
    pub fn source(&self, dir: Dir) -> TypeId {
        match dir {
            Dir::Forward => self.a,
            Dir::Backward => self.b,
        }
    }

    /// `true` if the edge connects a type to itself.
    pub fn is_loop(&self) -> bool {
        self.a == self.b
    }
}

#[derive(Clone, Debug)]
struct EdgeSlot {
    edge: Edge,
    alive: bool,
}

/// The undirected function multigraph (see module docs).
#[derive(Clone, Debug, Default)]
pub struct FunctionGraph {
    slots: Vec<EdgeSlot>,
    /// node → incident edge ids (dead edges are filtered on access).
    adj: HashMap<TypeId, Vec<EdgeId>>,
    by_function: HashMap<FunctionId, EdgeId>,
}

impl FunctionGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the function graph of an entire schema (Step 1 of AMS).
    pub fn from_schema(schema: &Schema) -> Self {
        let mut g = FunctionGraph::new();
        for def in schema.functions() {
            g.add_function(schema, def.id);
        }
        g
    }

    /// Adds the edge for `function`, returning its id.
    ///
    /// If the function already has an edge (alive or dead), the existing
    /// edge is revived in place and its id returned, so a design session
    /// can re-add a function the designer previously removed.
    pub fn add_function(&mut self, schema: &Schema, function: FunctionId) -> EdgeId {
        if let Some(&id) = self.by_function.get(&function) {
            self.slots[id.index()].alive = true;
            return id;
        }
        let def = schema.function(function);
        let id = EdgeId(self.slots.len() as u32);
        let edge = Edge {
            id,
            function,
            a: def.domain,
            b: def.range,
            functionality: def.functionality,
            kind: EdgeKind::Declared,
        };
        self.adj.entry(edge.a).or_default().push(id);
        if edge.a != edge.b {
            self.adj.entry(edge.b).or_default().push(id);
        }
        self.slots.push(EdgeSlot { edge, alive: true });
        self.by_function.insert(function, id);
        id
    }

    /// Tightens the edge of `function` to a data-discovered functionality,
    /// marking it [`EdgeKind::Advisory`]. The schema itself is untouched —
    /// only this graph view is tightened, and only if `functionality` is
    /// at least as strict as the declaration on both coordinates (an
    /// advisory edge may add guarantees, never remove declared ones).
    /// Returns `true` if the edge was tightened.
    pub fn tighten_advisory(&mut self, function: FunctionId, functionality: Functionality) -> bool {
        let Some(&id) = self.by_function.get(&function) else {
            return false;
        };
        let slot = &mut self.slots[id.index()];
        let declared = slot.edge.functionality;
        let strict_enough = (!declared.is_functional() || functionality.is_functional())
            && (!declared.is_injective() || functionality.is_injective());
        if !slot.alive || !strict_enough || functionality == declared {
            return false;
        }
        slot.edge.functionality = functionality;
        slot.edge.kind = EdgeKind::Advisory;
        true
    }

    /// Tombstones the edge of `function`; returns `true` if it was alive.
    pub fn remove_function(&mut self, function: FunctionId) -> bool {
        match self.by_function.get(&function) {
            Some(&id) if self.slots[id.index()].alive => {
                self.slots[id.index()].alive = false;
                true
            }
            _ => false,
        }
    }

    /// The edge currently representing `function`, if alive.
    pub fn edge_of(&self, function: FunctionId) -> Option<&Edge> {
        self.by_function.get(&function).and_then(|&id| {
            let slot = &self.slots[id.index()];
            slot.alive.then_some(&slot.edge)
        })
    }

    /// The edge with the given id regardless of liveness.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.slots[id.index()].edge
    }

    /// `true` if the edge is alive (its function is currently base).
    pub fn is_alive(&self, id: EdgeId) -> bool {
        self.slots[id.index()].alive
    }

    /// Iterates over the alive edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.slots.iter().filter(|s| s.alive).map(|s| &s.edge)
    }

    /// Number of alive edges.
    pub fn edge_count(&self) -> usize {
        self.slots.iter().filter(|s| s.alive).count()
    }

    /// Iterates over the directed incidences of `node`: each alive incident
    /// edge together with the traversal direction that departs from `node`
    /// and the endpoint it reaches. A self-loop yields both directions.
    pub fn neighbors<'g>(
        &'g self,
        node: TypeId,
    ) -> impl Iterator<Item = (EdgeId, Dir, TypeId)> + 'g {
        self.adj
            .get(&node)
            .into_iter()
            .flatten()
            .filter(|&&id| self.slots[id.index()].alive)
            .flat_map(move |&id| {
                let e = &self.slots[id.index()].edge;
                let mut out = Vec::with_capacity(2);
                if e.a == node {
                    out.push((id, Dir::Forward, e.b));
                }
                if e.b == node {
                    out.push((id, Dir::Backward, e.a));
                }
                out
            })
    }

    /// All nodes that currently have at least one alive incident edge.
    pub fn nodes(&self) -> Vec<TypeId> {
        let mut nodes: Vec<TypeId> = self.edges().flat_map(|e| [e.a, e.b]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::schema_s1;

    fn s1_graph() -> (Schema, FunctionGraph) {
        let s = schema_s1();
        let g = FunctionGraph::from_schema(&s);
        (s, g)
    }

    #[test]
    fn from_schema_adds_every_function() {
        let (s, g) = s1_graph();
        assert_eq!(g.edge_count(), s.len());
        for def in s.functions() {
            assert!(g.edge_of(def.id).is_some());
        }
    }

    #[test]
    fn parallel_edges_are_preserved() {
        // teach: faculty→course and taught_by: course→faculty are parallel.
        let (s, g) = s1_graph();
        let faculty = s.types().lookup("faculty").unwrap();
        let incid: Vec<_> = g.neighbors(faculty).collect();
        assert_eq!(incid.len(), 2);
        // teach departs forward, taught_by departs backward from faculty.
        let teach = s.resolve("teach").unwrap();
        let taught_by = s.resolve("taught_by").unwrap();
        let dirs: HashMap<FunctionId, Dir> = incid
            .iter()
            .map(|&(e, d, _)| (g.edge(e).function, d))
            .collect();
        assert_eq!(dirs[&teach], Dir::Forward);
        assert_eq!(dirs[&taught_by], Dir::Backward);
    }

    #[test]
    fn remove_and_revive() {
        let (s, mut g) = s1_graph();
        let teach = s.resolve("teach").unwrap();
        assert!(g.remove_function(teach));
        assert!(!g.remove_function(teach));
        assert!(g.edge_of(teach).is_none());
        assert_eq!(g.edge_count(), 4);
        let id = g.add_function(&s, teach);
        assert!(g.is_alive(id));
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn neighbors_skip_dead_edges() {
        let (s, mut g) = s1_graph();
        let faculty = s.types().lookup("faculty").unwrap();
        g.remove_function(s.resolve("teach").unwrap());
        let incid: Vec<_> = g.neighbors(faculty).collect();
        assert_eq!(incid.len(), 1);
        assert_eq!(g.edge(incid[0].0).function, s.resolve("taught_by").unwrap());
    }

    #[test]
    fn self_loop_yields_both_directions() {
        let mut s = Schema::new();
        let f = s
            .declare("mentor", "person", "person", Functionality::ManyOne)
            .unwrap();
        let mut g = FunctionGraph::new();
        g.add_function(&s, f);
        let person = s.types().lookup("person").unwrap();
        let incid: Vec<_> = g.neighbors(person).collect();
        assert_eq!(incid.len(), 2);
        assert!(incid.iter().any(|&(_, d, _)| d == Dir::Forward));
        assert!(incid.iter().any(|&(_, d, _)| d == Dir::Backward));
    }

    #[test]
    fn edge_direction_helpers() {
        let (s, g) = s1_graph();
        let teach = g.edge_of(s.resolve("teach").unwrap()).unwrap();
        assert_eq!(teach.source(Dir::Forward), teach.a);
        assert_eq!(teach.target(Dir::Forward), teach.b);
        assert_eq!(teach.source(Dir::Backward), teach.b);
        assert_eq!(teach.target(Dir::Backward), teach.a);
        assert_eq!(
            teach.functionality_along(Dir::Backward),
            teach.functionality.inverse()
        );
    }

    #[test]
    fn tighten_advisory_only_tightens() {
        let (s, mut g) = s1_graph();
        let teach = s.resolve("teach").unwrap();
        let grade = s.resolve("grade").unwrap();
        assert_eq!(g.edge_of(teach).unwrap().kind, EdgeKind::Declared);
        // ManyMany → ManyOne is a genuine tightening.
        assert!(g.tighten_advisory(teach, Functionality::ManyOne));
        let e = g.edge_of(teach).unwrap();
        assert_eq!(e.kind, EdgeKind::Advisory);
        assert_eq!(e.functionality, Functionality::ManyOne);
        // Loosening a declared many-one to many-many is refused, as is a
        // no-op "tightening" to the declaration itself.
        assert!(!g.tighten_advisory(grade, Functionality::ManyMany));
        assert!(!g.tighten_advisory(grade, Functionality::ManyOne));
        assert_eq!(g.edge_of(grade).unwrap().kind, EdgeKind::Declared);
        // Dead edges are not tightened.
        g.remove_function(teach);
        assert!(!g.tighten_advisory(teach, Functionality::OneOne));
    }

    #[test]
    fn nodes_reports_live_endpoints_only() {
        let (s, mut g) = s1_graph();
        let n_all = g.nodes().len();
        // S1 types: [student; course], letter_grade, marks, faculty, course = 5 graph nodes.
        assert_eq!(n_all, 5);
        g.remove_function(s.resolve("teach").unwrap());
        g.remove_function(s.resolve("taught_by").unwrap());
        // faculty no longer incident to any live edge.
        let faculty = s.types().lookup("faculty").unwrap();
        assert!(!g.nodes().contains(&faculty));
    }
}
