//! Three-valued queries over base and derived functions.
//!
//! "The truth values of base facts existing in the database are indicated
//! by their logical state (true or ambiguous). Those not existing in the
//! database are false. Derived facts do not exist in the database and
//! their truth value is determined [from chains]" (§3.2).
//!
//! All derived evaluation routes through the `fdb-exec` plan/execute
//! pipeline: each derivation is compiled into a cost-based
//! [`fdb_exec::ChainPlan`] (forward, backward, or meet-in-the-middle) and
//! run by the streaming executor, which preserves the reference
//! interpreter's results, governance semantics, and chain caps exactly;
//! an image, inverse image or extension takes one such run per
//! derivation, whatever the number of pairs it answers.

use fdb_exec::{
    derived_extension, derived_extension_governed, derived_image, derived_image_governed,
    derived_inverse_image, derived_inverse_image_governed, derived_truth, derived_truth_governed,
};
use fdb_governor::{Governor, Outcome};
use fdb_storage::{DerivedPair, Fact, Truth};
use fdb_types::{check_expression, FdbError, FunctionId, Refusal, Result, Value};

use crate::database::Database;

impl Database {
    /// Truth value of the fact `f(x) = y`.
    pub fn truth(&self, f: FunctionId, x: &Value, y: &Value) -> Result<Truth> {
        if self.is_derived(f) {
            Ok(derived_truth(
                self.store(),
                self.derivations(f),
                x,
                y,
                self.chain_limits(),
            ))
        } else {
            Ok(self.store().base_truth(&Fact {
                function: f,
                x: x.clone(),
                y: y.clone(),
            }))
        }
    }

    /// [`Database::truth`] under a [`Governor`].
    ///
    /// Chain enumeration checks the governor at step granularity; on a
    /// stop the result is `Exhausted` carrying a *sound lower bound* on
    /// the truth lattice (False < Ambiguous < True) — except that a
    /// `True` proof found before the stop is still `Complete`, since
    /// `True` is final.
    pub fn truth_governed(
        &self,
        f: FunctionId,
        x: &Value,
        y: &Value,
        governor: &Governor,
    ) -> Result<Outcome<Truth>> {
        if self.is_derived(f) {
            Ok(derived_truth_governed(
                self.store(),
                self.derivations(f),
                x,
                y,
                self.chain_limits(),
                governor,
            ))
        } else {
            Ok(Outcome::Complete(self.store().base_truth(&Fact {
                function: f,
                x: x.clone(),
                y: y.clone(),
            })))
        }
    }

    /// Truth value looked up by function name.
    pub fn truth_by_name(&self, f: &str, x: &Value, y: &Value) -> Result<Truth> {
        self.truth(self.resolve(f)?, x, y)
    }

    /// The visible extension of `f`: all non-false pairs with their truth
    /// values, sorted by (x, y). For a base function these are the stored
    /// rows; for a derived function the extension is computed through
    /// chains, omitting pairs with null endpoints.
    pub fn extension(&self, f: FunctionId) -> Result<Vec<DerivedPair>> {
        if self.is_derived(f) {
            Ok(derived_extension(
                self.store(),
                self.derivations(f),
                self.chain_limits(),
            ))
        } else {
            let mut rows: Vec<DerivedPair> = self
                .store()
                .table(f)
                .rows()
                .map(|r| DerivedPair {
                    x: r.x.clone(),
                    y: r.y.clone(),
                    truth: r.truth,
                })
                .collect();
            rows.sort_by(|a, b| (&a.x, &a.y).cmp(&(&b.x, &b.y)));
            Ok(rows)
        }
    }

    /// [`Database::extension`] under a [`Governor`]. An `Exhausted`
    /// result carries the pairs discovered before the stop — a sound
    /// prefix of the full extension, never fabricated pairs.
    pub fn extension_governed(
        &self,
        f: FunctionId,
        governor: &Governor,
    ) -> Result<Outcome<Vec<DerivedPair>>> {
        if self.is_derived(f) {
            Ok(derived_extension_governed(
                self.store(),
                self.derivations(f),
                self.chain_limits(),
                governor,
            ))
        } else {
            // Base rows are already materialised: nothing to govern.
            self.extension(f).map(Outcome::Complete)
        }
    }

    /// The image `f(x)`: every `y` with `f(x) = y` non-false, with truth
    /// values. (Functions are relations, so the image is a set.)
    ///
    /// For a derived function one enumeration per derivation, seeded at
    /// `x`, answers every pair of the image; for a base function it is
    /// one `by_x` index bucket. Either way the same pairs, in the same
    /// order, as filtering [`Database::extension`], at a fraction of the
    /// work.
    pub fn image(&self, f: FunctionId, x: &Value) -> Result<Vec<(Value, Truth)>> {
        if self.is_derived(f) {
            return Ok(
                derived_image(self.store(), self.derivations(f), x, self.chain_limits())
                    .into_iter()
                    .map(|p| (p.y, p.truth))
                    .collect(),
            );
        }
        Ok(self.base_slice(f, x, true))
    }

    /// [`Database::image`] under a [`Governor`].
    pub fn image_governed(
        &self,
        f: FunctionId,
        x: &Value,
        governor: &Governor,
    ) -> Result<Outcome<Vec<(Value, Truth)>>> {
        if self.is_derived(f) {
            let outcome = derived_image_governed(
                self.store(),
                self.derivations(f),
                x,
                self.chain_limits(),
                governor,
            );
            return Ok(outcome.map(|pairs| pairs.into_iter().map(|p| (p.y, p.truth)).collect()));
        }
        // One index bucket: nothing to govern.
        Ok(Outcome::Complete(self.base_slice(f, x, true)))
    }

    /// The inverse image `f⁻¹(y)`: the mirror of [`Database::image`],
    /// seeded from the bound right endpoint (typically through the `by_y`
    /// index).
    pub fn inverse_image(&self, f: FunctionId, y: &Value) -> Result<Vec<(Value, Truth)>> {
        if self.is_derived(f) {
            return Ok(derived_inverse_image(
                self.store(),
                self.derivations(f),
                y,
                self.chain_limits(),
            )
            .into_iter()
            .map(|p| (p.x, p.truth))
            .collect());
        }
        Ok(self.base_slice(f, y, false))
    }

    /// [`Database::inverse_image`] under a [`Governor`].
    pub fn inverse_image_governed(
        &self,
        f: FunctionId,
        y: &Value,
        governor: &Governor,
    ) -> Result<Outcome<Vec<(Value, Truth)>>> {
        if self.is_derived(f) {
            let outcome = derived_inverse_image_governed(
                self.store(),
                self.derivations(f),
                y,
                self.chain_limits(),
                governor,
            );
            return Ok(outcome.map(|pairs| pairs.into_iter().map(|p| (p.x, p.truth)).collect()));
        }
        Ok(Outcome::Complete(self.base_slice(f, y, false)))
    }

    /// One endpoint's slice of base function `f` — the stored rows whose
    /// domain (`by_x`) or range value is `key`, as the sorted other
    /// endpoints with their flags: what filtering [`Database::extension`]
    /// on that endpoint gives, from one index bucket instead of a sort of
    /// the whole table.
    fn base_slice(&self, f: FunctionId, key: &Value, by_x: bool) -> Vec<(Value, Truth)> {
        let table = self.store().table(f);
        let other_end = |i| {
            let row = table.row(i)?;
            Some((if by_x { row.y } else { row.x }.clone(), row.truth))
        };
        let mut slice: Vec<(Value, Truth)> = if by_x {
            table.rows_with_x(key).filter_map(other_end).collect()
        } else {
            table.rows_with_y(key).filter_map(other_end).collect()
        };
        slice.sort_by(|a, b| a.0.cmp(&b.0));
        slice
    }

    /// Evaluates an *ad-hoc* derivation expression at a point:
    /// `x : (u₁f₁ o … o u_k f_k)` — the DAPLEX-style path query, without
    /// registering a derived function. Steps must be base functions
    /// (derived functions are expanded by the caller or queried via
    /// [`Database::image`]). Returns the non-false images of `x`, sorted,
    /// with §3.2 truth values.
    pub fn eval_expression(
        &self,
        derivation: &fdb_types::Derivation,
        x: &Value,
    ) -> Result<Vec<(Value, Truth)>> {
        self.validate_expression(derivation)?;
        let derivations = std::slice::from_ref(derivation);
        Ok(
            derived_image(self.store(), derivations, x, self.chain_limits())
                .into_iter()
                .map(|p| (p.y, p.truth))
                .collect(),
        )
    }

    /// [`Database::eval_expression`] under a [`Governor`].
    pub fn eval_expression_governed(
        &self,
        derivation: &fdb_types::Derivation,
        x: &Value,
        governor: &Governor,
    ) -> Result<Outcome<Vec<(Value, Truth)>>> {
        self.validate_expression(derivation)?;
        let derivations = std::slice::from_ref(derivation);
        let outcome =
            derived_image_governed(self.store(), derivations, x, self.chain_limits(), governor);
        Ok(outcome.map(|pairs| pairs.into_iter().map(|p| (p.y, p.truth)).collect()))
    }

    /// Validates an ad-hoc expression by the catalog's rules
    /// ([`fdb_types::check_expression`]): its steps are declared, chain,
    /// and are base functions.
    fn validate_expression(&self, derivation: &fdb_types::Derivation) -> Result<()> {
        let schema = self.schema();
        match check_expression(schema, self.derived_registry(), derivation) {
            Ok(()) => Ok(()),
            Err(Refusal::DerivedStep { step, .. }) => Err(FdbError::MalformedDerivation(format!(
                "expression step {} is a derived function; expand it first",
                schema.function(derivation.steps()[step].function).name
            ))),
            // Rules 1 and 2, in the words of `Derivation::endpoints`.
            Err(_) => derivation.endpoints(schema).map(|_| ()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::{Derivation, Schema, Step};

    fn university() -> Database {
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "many-many")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let teach = db.resolve("teach").unwrap();
        let class_list = db.resolve("class_list").unwrap();
        let pupil = db.resolve("pupil").unwrap();
        db.register_derived(
            pupil,
            vec![Derivation::new(vec![Step::identity(teach), Step::identity(class_list)]).unwrap()],
        )
        .unwrap();
        db
    }

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    /// Loads the §3 instance.
    fn load(db: &mut Database) {
        let teach = db.resolve("teach").unwrap();
        let class_list = db.resolve("class_list").unwrap();
        db.insert(teach, v("euclid"), v("math")).unwrap();
        db.insert(teach, v("laplace"), v("math")).unwrap();
        db.insert(teach, v("laplace"), v("physics")).unwrap();
        db.insert(class_list, v("math"), v("john")).unwrap();
        db.insert(class_list, v("math"), v("bill")).unwrap();
    }

    #[test]
    fn derived_extension_matches_paper_instance() {
        let mut db = university();
        load(&mut db);
        let pupil = db.resolve("pupil").unwrap();
        let ext = db.extension(pupil).unwrap();
        let pairs: Vec<(String, String)> = ext
            .iter()
            .map(|p| (p.x.to_string(), p.y.to_string()))
            .collect();
        assert_eq!(
            pairs,
            vec![
                ("euclid".into(), "bill".into()),
                ("euclid".into(), "john".into()),
                ("laplace".into(), "bill".into()),
                ("laplace".into(), "john".into()),
            ]
        );
        assert!(ext.iter().all(|p| p.truth == Truth::True));
    }

    #[test]
    fn image_and_inverse_image() {
        let mut db = university();
        load(&mut db);
        let pupil = db.resolve("pupil").unwrap();
        let img = db.image(pupil, &v("euclid")).unwrap();
        assert_eq!(img.len(), 2);
        let inv = db.inverse_image(pupil, &v("john")).unwrap();
        assert_eq!(inv.len(), 2);
        let teach = db.resolve("teach").unwrap();
        assert_eq!(db.image(teach, &v("laplace")).unwrap().len(), 2);
        assert_eq!(db.image(teach, &v("gauss")).unwrap().len(), 0);
    }

    #[test]
    fn base_extension_is_sorted_rows() {
        let mut db = university();
        load(&mut db);
        let teach = db.resolve("teach").unwrap();
        let ext = db.extension(teach).unwrap();
        assert_eq!(ext.len(), 3);
        assert!(ext
            .windows(2)
            .all(|w| (&w[0].x, &w[0].y) <= (&w[1].x, &w[1].y)));
    }

    #[test]
    fn eval_expression_runs_ad_hoc_queries() {
        let mut db = university();
        load(&mut db);
        let teach = db.resolve("teach").unwrap();
        let class_list = db.resolve("class_list").unwrap();
        // euclid : (teach o class_list)
        let d = Derivation::new(vec![Step::identity(teach), Step::identity(class_list)]).unwrap();
        let ys = db.eval_expression(&d, &v("euclid")).unwrap();
        assert_eq!(
            ys.iter().map(|(y, _)| y.to_string()).collect::<Vec<_>>(),
            vec!["bill", "john"]
        );
        // john : (class_list⁻¹ o teach⁻¹) — who lectures to john?
        let d = Derivation::new(vec![Step::inverse(class_list), Step::inverse(teach)]).unwrap();
        let ys = db.eval_expression(&d, &v("john")).unwrap();
        assert_eq!(
            ys.iter().map(|(y, _)| y.to_string()).collect::<Vec<_>>(),
            vec!["euclid", "laplace"]
        );
    }

    #[test]
    fn eval_expression_rejects_derived_steps_and_bad_chains() {
        let mut db = university();
        load(&mut db);
        let pupil = db.resolve("pupil").unwrap();
        let teach = db.resolve("teach").unwrap();
        let d = Derivation::single(Step::identity(pupil));
        assert!(db.eval_expression(&d, &v("euclid")).is_err());
        let cutoff_like = Derivation::new(vec![
            Step::identity(teach),
            Step::identity(teach), // course is not faculty: broken chain
        ])
        .unwrap();
        assert!(db.eval_expression(&cutoff_like, &v("euclid")).is_err());
    }

    #[test]
    fn governed_queries_match_ungoverned_when_unbounded() {
        let mut db = university();
        load(&mut db);
        let pupil = db.resolve("pupil").unwrap();
        let gov = Governor::unbounded();
        assert_eq!(
            db.extension_governed(pupil, &gov).unwrap().value(),
            db.extension(pupil).unwrap()
        );
        assert_eq!(
            db.truth_governed(pupil, &v("euclid"), &v("john"), &gov)
                .unwrap()
                .value(),
            Truth::True
        );
        assert_eq!(
            db.image_governed(pupil, &v("euclid"), &gov)
                .unwrap()
                .value(),
            db.image(pupil, &v("euclid")).unwrap()
        );
        assert_eq!(
            db.inverse_image_governed(pupil, &v("john"), &gov)
                .unwrap()
                .value(),
            db.inverse_image(pupil, &v("john")).unwrap()
        );
    }

    #[test]
    fn governed_query_exhausts_under_tiny_step_budget() {
        use fdb_governor::StopReason;
        let mut db = university();
        load(&mut db);
        let pupil = db.resolve("pupil").unwrap();
        let gov = Governor::with_max_steps(1);
        let outcome = db.extension_governed(pupil, &gov).unwrap();
        assert!(!outcome.is_complete());
        assert_eq!(outcome.reason(), Some(StopReason::Steps));
        // Exhausted partials are a prefix of the full answer.
        let full = db.extension(pupil).unwrap();
        let partial = outcome.value();
        assert!(partial.iter().all(|p| full.contains(p)));
    }

    #[test]
    fn governed_query_honours_cancellation() {
        let mut db = university();
        load(&mut db);
        let pupil = db.resolve("pupil").unwrap();
        let gov = Governor::unbounded();
        gov.cancel_token().cancel();
        let outcome = db
            .truth_governed(pupil, &v("euclid"), &v("john"), &gov)
            .unwrap();
        assert_eq!(outcome.reason(), Some(fdb_governor::StopReason::Cancelled));
    }

    #[test]
    fn truth_by_name() {
        let mut db = university();
        load(&mut db);
        assert_eq!(
            db.truth_by_name("pupil", &v("euclid"), &v("john")).unwrap(),
            Truth::True
        );
        assert_eq!(
            db.truth_by_name("pupil", &v("gauss"), &v("john")).unwrap(),
            Truth::False
        );
        assert!(db.truth_by_name("nonexistent", &v("a"), &v("b")).is_err());
    }
}
