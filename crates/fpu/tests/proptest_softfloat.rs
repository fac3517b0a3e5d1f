//! Property-based verification of the softfloat core against the host FPU.
//!
//! Both the softfloat routines and the host implement IEEE-754 binary64
//! with round-to-nearest-even, so every finite-input operation must agree
//! bit for bit; NaNs are compared as a class because payload propagation is
//! implementation-defined.

use fblas_fpu::softfloat::{self, sf_add, sf_mul, sf_sub};
use proptest::prelude::*;

/// Bit-exact equality with NaNs treated as one class.
fn same(ours: u64, native: f64) -> bool {
    if softfloat::is_nan(ours) {
        native.is_nan()
    } else {
        ours == native.to_bits()
    }
}

/// Arbitrary *bit patterns*, not arbitrary values: this covers NaN payloads,
/// subnormals and infinities far more densely than sampling by value.
fn any_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Uniform over the full pattern space.
        any::<u64>(),
        // Clustered near exponent-field boundaries where rounding and
        // underflow/overflow corner cases live.
        (0u64..=1, 0u64..=4, any::<u64>())
            .prop_map(|(s, e, f)| { (s << 63) | (e << 52) | (f & ((1 << 52) - 1)) }),
        (0u64..=1, 2043u64..=2047, any::<u64>())
            .prop_map(|(s, e, f)| { (s << 63) | (e << 52) | (f & ((1 << 52) - 1)) }),
        // Pairs of nearby magnitudes (catastrophic-cancellation region).
        any::<i64>().prop_map(|x| (x.unsigned_abs()) % (1 << 60)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn add_matches_native(a in any_bits(), b in any_bits()) {
        let ours = sf_add(a, b);
        let native = f64::from_bits(a) + f64::from_bits(b);
        prop_assert!(
            same(ours, native),
            "add({a:#018x}, {b:#018x}) = {ours:#018x}, native {:#018x}",
            native.to_bits()
        );
    }

    #[test]
    fn sub_matches_native(a in any_bits(), b in any_bits()) {
        let ours = sf_sub(a, b);
        let native = f64::from_bits(a) - f64::from_bits(b);
        prop_assert!(
            same(ours, native),
            "sub({a:#018x}, {b:#018x}) = {ours:#018x}, native {:#018x}",
            native.to_bits()
        );
    }

    #[test]
    fn mul_matches_native(a in any_bits(), b in any_bits()) {
        let ours = sf_mul(a, b);
        let native = f64::from_bits(a) * f64::from_bits(b);
        prop_assert!(
            same(ours, native),
            "mul({a:#018x}, {b:#018x}) = {ours:#018x}, native {:#018x}",
            native.to_bits()
        );
    }

    #[test]
    fn add_is_commutative(a in any_bits(), b in any_bits()) {
        let ab = sf_add(a, b);
        let ba = sf_add(b, a);
        prop_assert!(ab == ba || (softfloat::is_nan(ab) && softfloat::is_nan(ba)));
    }

    #[test]
    fn mul_is_commutative(a in any_bits(), b in any_bits()) {
        let ab = sf_mul(a, b);
        let ba = sf_mul(b, a);
        prop_assert!(ab == ba || (softfloat::is_nan(ab) && softfloat::is_nan(ba)));
    }

    #[test]
    fn add_identity_zero(a in any_bits()) {
        prop_assume!(!softfloat::is_nan(a) && !softfloat::is_zero(a));
        prop_assert_eq!(sf_add(a, 0.0f64.to_bits()), a);
    }

    #[test]
    fn mul_identity_one(a in any_bits()) {
        prop_assume!(!softfloat::is_nan(a));
        prop_assert_eq!(sf_mul(a, 1.0f64.to_bits()), a);
    }

    #[test]
    fn sterbenz_subtraction_is_exact(m in 1u64..(1 << 52), e in 1u64..2046) {
        // For b/2 <= a <= b, a - b is exactly representable, so the
        // softfloat result must equal the mathematically exact difference.
        let a = f64::from_bits((e << 52) | m);
        let b = f64::from_bits(((e) << 52) | (m / 2));
        let ours = f64::from_bits(sf_sub(a.to_bits(), b.to_bits()));
        prop_assert_eq!(ours, a - b);
    }
}
