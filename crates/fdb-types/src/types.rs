//! Object types and the type registry.
//!
//! Object types are the nodes of the function graph (§2 of the paper).
//! They are interned: each distinct type name receives a dense [`TypeId`].
//! Compound domains such as `[student; course]` (used by `grade`, `score`
//! and `attendance` in the paper's running example) are first-class object
//! types whose canonical name records their components.

use std::collections::HashMap;
use std::fmt;

/// A dense identifier for an interned object type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TypeId(pub u32);

impl TypeId {
    /// Returns the underlying index, usable for dense per-type tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// Metadata stored for each interned type.
#[derive(Clone, Debug)]
struct TypeInfo {
    name: String,
    /// For a compound type `[a; b; …]`, the component types; empty for
    /// simple types.
    components: Vec<TypeId>,
}

/// Interner for object types.
///
/// Names are canonicalised before interning: surrounding whitespace is
/// trimmed and compound syntax is normalised to `[a; b]` with single
/// spacing, so `[student ;course]` and `[student; course]` intern to the
/// same [`TypeId`].
#[derive(Clone, Debug, Default)]
pub struct TypeRegistry {
    infos: Vec<TypeInfo>,
    by_name: HashMap<String, TypeId>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a simple or compound type name, returning its id.
    ///
    /// Compound names (`[a; b]`) recursively intern their components.
    pub fn intern(&mut self, name: &str) -> TypeId {
        let canonical = Self::canonicalize(name);
        if let Some(&id) = self.by_name.get(&canonical) {
            return id;
        }
        let components = if canonical.starts_with('[') {
            Self::split_components(&canonical)
                .into_iter()
                .map(|c| self.intern(&c))
                .collect()
        } else {
            Vec::new()
        };
        let id = TypeId(self.infos.len() as u32);
        self.infos.push(TypeInfo {
            name: canonical.clone(),
            components,
        });
        self.by_name.insert(canonical, id);
        id
    }

    /// Interns the compound type formed from the given component types.
    pub fn intern_compound(&mut self, components: &[TypeId]) -> TypeId {
        let name = format!(
            "[{}]",
            components
                .iter()
                .map(|&c| self.name(c).to_owned())
                .collect::<Vec<_>>()
                .join("; ")
        );
        self.intern(&name)
    }

    /// Looks up a type by (canonicalised) name without interning.
    pub fn lookup(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(&Self::canonicalize(name)).copied()
    }

    /// Returns the canonical name of a type.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this registry.
    pub fn name(&self, id: TypeId) -> &str {
        &self.infos[id.index()].name
    }

    /// Returns the components of a compound type (empty for simple types).
    pub fn components(&self, id: TypeId) -> &[TypeId] {
        &self.infos[id.index()].components
    }

    /// Returns `true` if the type is compound (`[a; b]`-shaped).
    pub fn is_compound(&self, id: TypeId) -> bool {
        !self.infos[id.index()].components.is_empty()
    }

    /// Number of interned types.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Returns `true` if no types have been interned.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Iterates over all `(TypeId, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TypeId, &str)> {
        self.infos
            .iter()
            .enumerate()
            .map(|(i, info)| (TypeId(i as u32), info.name.as_str()))
    }

    fn canonicalize(name: &str) -> String {
        let trimmed = name.trim();
        if trimmed.starts_with('[') && trimmed.ends_with(']') {
            let inner = &trimmed[1..trimmed.len() - 1];
            let parts: Vec<String> = inner.split(';').map(Self::canonicalize).collect();
            format!("[{}]", parts.join("; "))
        } else {
            trimmed.to_owned()
        }
    }

    fn split_components(canonical: &str) -> Vec<String> {
        // `canonical` is already normalised; components are split on `;` at
        // bracket depth 1.
        let inner = &canonical[1..canonical.len() - 1];
        let mut parts = Vec::new();
        let mut depth = 0usize;
        let mut start = 0usize;
        for (i, ch) in inner.char_indices() {
            match ch {
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                ';' if depth == 0 => {
                    parts.push(inner[start..i].trim().to_owned());
                    start = i + 1;
                }
                _ => {}
            }
        }
        parts.push(inner[start..].trim().to_owned());
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut reg = TypeRegistry::new();
        let a = reg.intern("student");
        let b = reg.intern("student");
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let mut reg = TypeRegistry::new();
        let a = reg.intern("student");
        let b = reg.intern("course");
        assert_ne!(a, b);
        assert_eq!(reg.name(a), "student");
        assert_eq!(reg.name(b), "course");
    }

    #[test]
    fn compound_types_are_canonicalised() {
        let mut reg = TypeRegistry::new();
        let a = reg.intern("[student; course]");
        let b = reg.intern("[ student ;course ]");
        assert_eq!(a, b);
        assert_eq!(reg.name(a), "[student; course]");
        assert!(reg.is_compound(a));
        let comps = reg.components(a).to_vec();
        assert_eq!(comps.len(), 2);
        assert_eq!(reg.name(comps[0]), "student");
        assert_eq!(reg.name(comps[1]), "course");
    }

    #[test]
    fn compound_interning_registers_components() {
        let mut reg = TypeRegistry::new();
        reg.intern("[a; b]");
        assert!(reg.lookup("a").is_some());
        assert!(reg.lookup("b").is_some());
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn intern_compound_builds_bracket_name() {
        let mut reg = TypeRegistry::new();
        let s = reg.intern("student");
        let c = reg.intern("course");
        let sc = reg.intern_compound(&[s, c]);
        assert_eq!(reg.name(sc), "[student; course]");
        assert_eq!(reg.lookup("[student; course]"), Some(sc));
    }

    #[test]
    fn nested_compounds_split_correctly() {
        let mut reg = TypeRegistry::new();
        let t = reg.intern("[[a; b]; c]");
        let comps = reg.components(t).to_vec();
        assert_eq!(comps.len(), 2);
        assert_eq!(reg.name(comps[0]), "[a; b]");
        assert_eq!(reg.name(comps[1]), "c");
    }

    #[test]
    fn lookup_without_intern_returns_none() {
        let reg = TypeRegistry::new();
        assert!(reg.lookup("ghost").is_none());
    }
}
