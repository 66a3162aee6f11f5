//! Conceptual schemas.
//!
//! A schema is the ordered collection of function definitions of a
//! functional database, together with the object-type registry. Order
//! matters: the on-line design aid (Method 2.1) processes functions in
//! declaration order, and Algorithm AMS iterates edges in that order, so we
//! preserve it.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{FdbError, Result};
use crate::function::{FunctionDef, FunctionId};
use crate::functionality::Functionality;
use crate::types::{TypeId, TypeRegistry};

/// A conceptual schema: object types plus function definitions.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Schema {
    types: TypeRegistry,
    functions: Vec<FunctionDef>,
    #[serde(skip)]
    by_name: HashMap<String, FunctionId>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a fluent builder.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder {
            schema: Schema::new(),
            error: None,
        }
    }

    /// Rebuilds internal indexes after deserialisation.
    pub fn rebuild_index(&mut self) {
        self.types.rebuild_index();
        self.by_name = self
            .functions
            .iter()
            .map(|f| (f.name.clone(), f.id))
            .collect();
    }

    /// Declares a function `name : domain → range (functionality)`.
    ///
    /// Domain and range type names are interned on the fly. Returns the new
    /// function's id, or [`FdbError::DuplicateFunction`] if the name is
    /// taken.
    pub fn declare(
        &mut self,
        name: &str,
        domain: &str,
        range: &str,
        functionality: Functionality,
    ) -> Result<FunctionId> {
        if self.by_name.contains_key(name) {
            return Err(FdbError::DuplicateFunction(name.to_owned()));
        }
        let domain = self.types.intern(domain);
        let range = self.types.intern(range);
        let id = FunctionId(self.functions.len() as u32);
        self.functions.push(FunctionDef {
            id,
            name: name.to_owned(),
            domain,
            range,
            functionality,
        });
        self.by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Looks a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<&FunctionDef> {
        self.by_name.get(name).map(|&id| self.function(id))
    }

    /// Resolves a function name to its id, erroring if unknown.
    pub fn resolve(&self, name: &str) -> Result<FunctionId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| FdbError::UnknownFunction(name.to_owned()))
    }

    /// Returns the definition of a function.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this schema.
    pub fn function(&self, id: FunctionId) -> &FunctionDef {
        &self.functions[id.index()]
    }

    /// All function definitions, in declaration order.
    pub fn functions(&self) -> &[FunctionDef] {
        &self.functions
    }

    /// Number of functions declared.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// `true` if no functions are declared.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Immutable access to the type registry.
    pub fn types(&self) -> &TypeRegistry {
        &self.types
    }

    /// The name of an object type.
    pub fn type_name(&self, id: TypeId) -> &str {
        self.types.name(id)
    }

    /// Renders one definition the way the paper prints them:
    /// `grade: [student; course] → letter_grade; (many - one)`.
    pub fn render_def(&self, id: FunctionId) -> String {
        let f = self.function(id);
        format!(
            "{}: {} -> {}; ({})",
            f.name,
            self.type_name(f.domain),
            self.type_name(f.range),
            f.functionality.paper_notation()
        )
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, def) in self.functions.iter().enumerate() {
            writeln!(f, "{}. {}", i + 1, self.render_def(def.id))?;
        }
        Ok(())
    }
}

/// Fluent builder so examples can declare whole schemas in one expression.
///
/// Errors are deferred: the first declaration failure is reported by
/// [`SchemaBuilder::build`].
pub struct SchemaBuilder {
    schema: Schema,
    error: Option<FdbError>,
}

impl SchemaBuilder {
    /// Declares a function; functionality is given textually
    /// (`"many-one"`, `"many - many"`, …).
    pub fn function(mut self, name: &str, domain: &str, range: &str, functionality: &str) -> Self {
        if self.error.is_some() {
            return self;
        }
        match functionality.parse::<Functionality>() {
            Ok(fun) => {
                if let Err(e) = self.schema.declare(name, domain, range, fun) {
                    self.error = Some(e);
                }
            }
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Finishes the build, reporting the first deferred error if any.
    pub fn build(self) -> Result<Schema> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.schema),
        }
    }
}

/// The paper's Table 1 (conceptual schema S1), ready-made for tests,
/// examples and benches.
pub fn schema_s1() -> Schema {
    Schema::builder()
        .function("grade", "[student; course]", "letter_grade", "many-one")
        .function("score", "[student; course]", "marks", "many-one")
        .function("cutoff", "marks", "letter_grade", "many-one")
        .function("teach", "faculty", "course", "many-many")
        .function("taught_by", "course", "faculty", "many-many")
        .build()
        .expect("S1 is well-formed")
}

/// The §2.1 counter-example schema S2 (teach / class_list / lecturer_of).
pub fn schema_s2() -> Schema {
    Schema::builder()
        .function("teach", "faculty", "course", "many-many")
        .function("class_list", "course", "student", "many-many")
        .function("lecturer_of", "student", "faculty", "many-many")
        .build()
        .expect("S2 is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut s = Schema::new();
        let id = s
            .declare("teach", "faculty", "course", Functionality::ManyMany)
            .unwrap();
        assert_eq!(s.resolve("teach").unwrap(), id);
        let def = s.function_by_name("teach").unwrap();
        assert_eq!(s.type_name(def.domain), "faculty");
        assert_eq!(s.type_name(def.range), "course");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut s = Schema::new();
        s.declare("f", "a", "b", Functionality::OneOne).unwrap();
        let err = s.declare("f", "a", "c", Functionality::OneOne).unwrap_err();
        assert_eq!(err, FdbError::DuplicateFunction("f".into()));
    }

    #[test]
    fn unknown_function_errors() {
        let s = Schema::new();
        assert!(matches!(
            s.resolve("nope"),
            Err(FdbError::UnknownFunction(_))
        ));
    }

    #[test]
    fn table1_schema_s1_matches_paper() {
        let s = schema_s1();
        assert_eq!(s.len(), 5);
        assert_eq!(
            s.render_def(s.resolve("grade").unwrap()),
            "grade: [student; course] -> letter_grade; (many - one)"
        );
        assert_eq!(
            s.render_def(s.resolve("cutoff").unwrap()),
            "cutoff: marks -> letter_grade; (many - one)"
        );
        // grade and score share the compound domain type.
        let grade = s.function_by_name("grade").unwrap();
        let score = s.function_by_name("score").unwrap();
        assert_eq!(grade.domain, score.domain);
    }

    #[test]
    fn builder_reports_first_error() {
        let r = Schema::builder()
            .function("f", "a", "b", "one-one")
            .function("g", "a", "b", "sideways")
            .function("f", "a", "b", "one-one")
            .build();
        assert!(matches!(r, Err(FdbError::ParseFunctionality(_))));
    }

    #[test]
    fn display_numbers_functions_like_table1() {
        let s = schema_s1();
        let text = s.to_string();
        assert!(text.starts_with("1. grade:"));
        assert!(text.contains("\n5. taught_by:"));
    }

    #[test]
    fn serde_round_trip_preserves_resolution() {
        let s = schema_s1();
        let json = serde_json::to_string(&s).unwrap();
        let mut back: Schema = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.len(), 5);
        assert_eq!(back.resolve("teach").unwrap(), s.resolve("teach").unwrap());
        assert_eq!(
            back.render_def(back.resolve("grade").unwrap()),
            s.render_def(s.resolve("grade").unwrap())
        );
    }
}
