//! Algebraic properties of the core vocabulary: the functionality
//! algebra, value matching, and derivation inversion.

use proptest::prelude::*;

use fdb_types::{Derivation, Functionality, MatchKind, NullId, Schema, Step, Value};

fn arb_functionality() -> impl Strategy<Value = Functionality> {
    prop::sample::select(Functionality::ALL.to_vec())
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[a-e]{1,3}".prop_map(Value::atom),
        (1u64..6).prop_map(|i| Value::Null(NullId(i))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The functionality monoid: associativity, identity (one-one),
    /// absorbing element (many-many), idempotence of every element.
    #[test]
    fn functionality_monoid_laws(
        a in arb_functionality(),
        b in arb_functionality(),
        c in arb_functionality(),
    ) {
        prop_assert_eq!(a.compose(b).compose(c), a.compose(b.compose(c)));
        prop_assert_eq!(Functionality::OneOne.compose(a), a);
        prop_assert_eq!(a.compose(Functionality::OneOne), a);
        prop_assert_eq!(a.compose(Functionality::ManyMany), Functionality::ManyMany);
        prop_assert_eq!(a.compose(a), a);
        // This algebra happens to be commutative (component-wise AND).
        prop_assert_eq!(a.compose(b), b.compose(a));
    }

    /// Inverse is an involutive anti-automorphism.
    #[test]
    fn inverse_laws(a in arb_functionality(), b in arb_functionality()) {
        prop_assert_eq!(a.inverse().inverse(), a);
        prop_assert_eq!(a.compose(b).inverse(), b.inverse().compose(a.inverse()));
    }

    /// Value matching is symmetric; exact matching is transitive; two
    /// atoms never match ambiguously.
    #[test]
    fn matching_laws(x in arb_value(), y in arb_value(), z in arb_value()) {
        prop_assert_eq!(x.matches(&y), y.matches(&x));
        prop_assert_eq!(x.matches(&x), MatchKind::Exact);
        if x.matches(&y) == MatchKind::Exact && y.matches(&z) == MatchKind::Exact {
            prop_assert_eq!(x.matches(&z), MatchKind::Exact);
        }
        if !x.is_null() && !y.is_null() {
            prop_assert_ne!(x.matches(&y), MatchKind::Ambiguous);
        }
        if x.matches(&y) == MatchKind::Ambiguous {
            prop_assert!(x.is_null() || y.is_null());
        }
    }

    /// An atom behaves as its text, on either side of the 14 bytes that
    /// fit inside a `Value`: equality, order, hash, printing and the
    /// snapshot bytes are those of the `String` it was made from. The
    /// class holds one-, two- and three-byte characters and the zero byte
    /// that pads an inline atom.
    #[test]
    fn atoms_behave_as_their_text(
        a in "[ab\u{0}é€]{0,16}",
        b in "[ab\u{0}é€]{0,16}",
    ) {
        use std::hash::{BuildHasher, RandomState};
        let (x, y) = (Value::atom(&a), Value::from(b.clone()));
        prop_assert_eq!(x == y, a == b);
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        prop_assert!(x < Value::Null(NullId(0)));
        let hasher = RandomState::new();
        if a == b {
            prop_assert_eq!(hasher.hash_one(&x), hasher.hash_one(&y));
        }
        prop_assert_eq!(x.to_string(), a.clone());
        prop_assert_eq!(format!("{x:?}"), format!("Atom({a:?})"));
        let mut bytes = vec![0];
        fdb_types::codec::put_str(&mut bytes, &a);
        let mut encoded = Vec::new();
        x.encode(&mut encoded);
        prop_assert_eq!(encoded, bytes);
    }

    /// MatchKind::and is the meet of the Exact > Ambiguous > None chain.
    #[test]
    fn match_combination_laws(
        a in prop::sample::select(vec![MatchKind::Exact, MatchKind::Ambiguous, MatchKind::None]),
        b in prop::sample::select(vec![MatchKind::Exact, MatchKind::Ambiguous, MatchKind::None]),
        c in prop::sample::select(vec![MatchKind::Exact, MatchKind::Ambiguous, MatchKind::None]),
    ) {
        prop_assert_eq!(a.and(b), b.and(a));
        prop_assert_eq!(a.and(b).and(c), a.and(b.and(c)));
        prop_assert_eq!(a.and(MatchKind::Exact), a);
        prop_assert_eq!(a.and(MatchKind::None), MatchKind::None);
        prop_assert_eq!(a.and(a), a);
    }

    /// Derivation inversion: involutive, endpoint-swapping,
    /// functionality-inverting — over random well-formed chains.
    #[test]
    fn derivation_inversion_laws(
        funcs in proptest::collection::vec(arb_functionality(), 1..6),
        invert_mask in proptest::collection::vec(any::<bool>(), 1..6),
    ) {
        // Build a chain schema t0 -f0-> t1 -f1-> … and a derivation using
        // each function, inverted per the mask (orientation adjusted so
        // the chain still links).
        let k = funcs.len();
        let mut schema = Schema::new();
        let mut steps = Vec::with_capacity(k);
        for (i, &fun) in funcs.iter().enumerate() {
            let inv = *invert_mask.get(i).unwrap_or(&false);
            // If the step is inverted, declare the function backwards so
            // the inverse step still leads t{i} → t{i+1}.
            let (dom, rng) = if inv {
                (format!("t{}", i + 1), format!("t{i}"))
            } else {
                (format!("t{i}"), format!("t{}", i + 1))
            };
            let id = schema
                .declare(&format!("f{i}"), &dom, &rng, fun)
                .unwrap();
            steps.push(if inv { Step::inverse(id) } else { Step::identity(id) });
        }
        let d = Derivation::new(steps).unwrap();
        let (dom, rng) = d.endpoints(&schema).unwrap();
        let inv = d.inverted();
        let (idom, irng) = inv.endpoints(&schema).unwrap();
        prop_assert_eq!((dom, rng), (irng, idom));
        prop_assert_eq!(inv.inverted(), d.clone());
        prop_assert_eq!(
            d.functionality(&schema).inverse(),
            inv.functionality(&schema)
        );
    }
}
