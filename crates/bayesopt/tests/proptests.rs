//! Property-based tests of parameter spaces and designs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use mtm_bayesopt::design::{latin_hypercube, random_design};
use mtm_bayesopt::space::{Param, ParamSpace, Value};

fn arb_param() -> impl Strategy<Value = Param> {
    prop_oneof![
        (-50i64..50, 1i64..100).prop_map(|(lo, span)| Param::int("p", lo, lo + span)),
        (-10.0f64..10.0, 0.1f64..20.0).prop_map(|(lo, span)| Param::float("p", lo, lo + span)),
        (0.01f64..10.0, 1.1f64..100.0).prop_map(|(lo, factor)| Param::log_float(
            "p",
            lo,
            lo * factor
        )),
        (1i64..100, 2i64..1000).prop_map(|(lo, span)| Param::log_int("p", lo, lo + span)),
        (1usize..6).prop_map(|k| {
            let names: Vec<String> = (0..k).map(|i| format!("c{i}")).collect();
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            Param::categorical("p", &refs)
        }),
    ]
}

/// [`arb_param`] plus the edge shapes: a one-value `Int`, a wide `Int`
/// and `LogInt`, the informed-multiplier `LogFloat` and a one-choice
/// `Categorical`.
fn arb_edge_param() -> impl Strategy<Value = Param> {
    prop_oneof![
        arb_param(),
        (-50i64..50).prop_map(|lo| Param::int("p", lo, lo)),
        Just(Param::int("p", i64::MIN / 4, i64::MAX / 4)),
        (1i64..1_000, 1_000i64..1_000_000_000).prop_map(|(lo, f)| Param::log_int("p", lo, lo * f)),
        Just(Param::log_float("p", 0.25, 60.0)),
        Just(Param::categorical("p", &["only"])),
    ]
}

/// `params` named `p0, p1, …`, so a space can hold any mix of them.
fn renamed(mut params: Vec<Param>) -> Vec<Param> {
    for (i, p) in params.iter_mut().enumerate() {
        match p {
            Param::Int { name, .. }
            | Param::Float { name, .. }
            | Param::LogFloat { name, .. }
            | Param::LogInt { name, .. }
            | Param::Categorical { name, .. } => *name = format!("p{i}"),
        }
    }
    params
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The one-pass draw of `RandomSearch`, Hyperband's rung 0 and TPE's
    /// startup against the two passes it replaced: the same `rng`
    /// sequence gives the same values and the same unit bits, draw after
    /// draw.
    #[test]
    fn sample_candidate_is_bit_equal_to_sample_then_encode(
        params in prop::collection::vec(arb_edge_param(), 1..40),
        seed in any::<u64>(),
    ) {
        let space = ParamSpace::new(renamed(params));
        let mut fused = StdRng::seed_from_u64(seed);
        let mut two_pass = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let got = space.sample_candidate(&mut fused);
            let values = space.sample(&mut two_pass);
            let unit = space.encode(&values);
            prop_assert_eq!(&got.values, &values);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.unit), bits(&unit));
        }
    }

    #[test]
    fn decode_always_lands_in_range(param in arb_param(), u in 0.0f64..=1.0) {
        let v = param.decode(u);
        match (&param, &v) {
            (Param::Int { lo, hi, .. }, Value::Int(x)) => prop_assert!(lo <= x && x <= hi),
            (Param::LogInt { lo, hi, .. }, Value::Int(x)) => prop_assert!(lo <= x && x <= hi),
            (Param::Float { lo, hi, .. }, Value::Float(x)) => {
                prop_assert!(*lo <= *x && *x <= *hi)
            }
            (Param::LogFloat { lo, hi, .. }, Value::Float(x)) => {
                prop_assert!(*lo * (1.0 - 1e-12) <= *x && *x <= *hi * (1.0 + 1e-12))
            }
            (Param::Categorical { choices, .. }, Value::Cat(i)) => {
                prop_assert!(*i < choices.len())
            }
            other => prop_assert!(false, "mismatched decode {other:?}"),
        }
    }

    #[test]
    fn decode_encode_decode_is_stable(param in arb_param(), u in 0.0f64..=1.0) {
        let v1 = param.decode(u);
        let u2 = param.encode(&v1);
        let v2 = param.decode(u2);
        // One round trip may quantize; the second must be a fixed point.
        let u3 = param.encode(&v2);
        let v3 = param.decode(u3);
        prop_assert_eq!(v2, v3);
        prop_assert!((0.0..=1.0).contains(&u2));
    }

    #[test]
    fn out_of_range_inputs_are_clamped(param in arb_param(), u in -3.0f64..4.0) {
        // decode never panics and always produces an in-range value.
        let v = param.decode(u);
        let back = param.encode(&v);
        prop_assert!((0.0..=1.0).contains(&back));
    }

    #[test]
    fn space_canonicalization_is_idempotent(
        params in prop::collection::vec(arb_param(), 1..6),
        seed in any::<u64>(),
    ) {
        let space = ParamSpace::new(renamed(params));
        let mut rng = StdRng::seed_from_u64(seed);
        let values = space.sample(&mut rng);
        let u = space.encode(&values);
        let canon1 = space.canonicalize(&u);
        let canon2 = space.canonicalize(&canon1);
        // Continuous (log-)parameters round-trip through ln/exp, which is
        // not bit-exact; compare with a relative tolerance.
        let close = |a: &Value, b: &Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => {
                (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
            }
            _ => a == b,
        };
        for (a, b) in space.decode(&canon1).iter().zip(&space.decode(&canon2)) {
            prop_assert!(close(a, b), "canonicalize must be idempotent: {a:?} vs {b:?}");
        }
        for (a, b) in space.decode(&u).iter().zip(&values) {
            prop_assert!(close(a, b), "decode(encode(v)) ≈ v: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn latin_hypercube_stratifies_every_dimension(
        n in 2usize..40,
        d in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = latin_hypercube(n, d, &mut rng);
        prop_assert_eq!(pts.len(), n);
        for dim in 0..d {
            let mut seen = vec![false; n];
            for p in &pts {
                let bin = ((p[dim] * n as f64).floor() as usize).min(n - 1);
                prop_assert!(!seen[bin], "dim {dim}: bin {bin} occupied twice");
                seen[bin] = true;
            }
        }
    }

    #[test]
    fn random_design_is_in_unit_cube(n in 1usize..50, d in 1usize..10, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = random_design(n, d, &mut rng);
        prop_assert!(pts.iter().flatten().all(|&x| (0.0..1.0).contains(&x)));
    }
}
