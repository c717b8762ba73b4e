//! Overflow-free arithmetic in `Z_p` for 64-bit primes.
//!
//! `HP-TestOut` evaluates products of linear factors over `Z_p` along the
//! broadcast-and-echo tree; these helpers keep every intermediate inside
//! `u128` so the computation is exact for any prime below `2^63`.
//!
//! For the Mersenne prime [`HP_PRIME`] `= 2^61 − 1` that HP-TestOut uses,
//! [`reduce_hp`] and [`mul_mod_hp`] replace the `u128` division by shifts
//! and masks: `2^61 ≡ 1 (mod p)`, so `x = hi·2^61 + lo ≡ hi + lo`.

/// The Mersenne prime `2^61 − 1`, HP-TestOut's predetermined modulus.
pub const HP_PRIME: u64 = (1u64 << 61) - 1;

/// `x mod HP_PRIME` for any `u128`, by two Mersenne folds and one
/// conditional subtraction. Equal to `(x % HP_PRIME as u128) as u64`.
#[inline]
pub fn reduce_hp(x: u128) -> u64 {
    const P: u128 = HP_PRIME as u128;
    // First fold: < 2^61 + 2^67. Second fold: <= p + 64 < 2p.
    let x = (x & P) + (x >> 61);
    let x = ((x & P) + (x >> 61)) as u64;
    if x >= HP_PRIME {
        x - HP_PRIME
    } else {
        x
    }
}

/// `(a * b) mod HP_PRIME` without a division. Equal to
/// `mul_mod(a, b, HP_PRIME)` for all `a`, `b`.
#[inline]
pub fn mul_mod_hp(a: u64, b: u64) -> u64 {
    reduce_hp((a as u128) * (b as u128))
}

/// `(a + b) mod m`.
pub fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    (((a as u128) + (b as u128)) % (m as u128)) as u64
}

/// `(a - b) mod m`, always in `[0, m)`.
pub fn sub_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    let (a, b) = (a % m, b % m);
    if a >= b {
        a - b
    } else {
        a + (m - b)
    }
}

/// `(a * b) mod m` computed through `u128`.
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    (((a as u128) * (b as u128)) % (m as u128)) as u64
}

/// `base^exp mod m` by square-and-multiply.
pub fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    if m == 1 {
        return 0;
    }
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Modular inverse of `a` modulo prime `p` (Fermat), or `None` if `a ≡ 0`.
pub fn inv_mod(a: u64, p: u64) -> Option<u64> {
    let a = a % p;
    if a == 0 {
        None
    } else {
        Some(pow_mod(a, p - 2, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u64 = 1_000_000_007;

    #[test]
    fn add_wraps() {
        assert_eq!(add_mod(P - 1, 5, P), 4);
        assert_eq!(add_mod(0, 0, P), 0);
        assert_eq!(add_mod(u64::MAX, u64::MAX, P), ((u64::MAX as u128 * 2) % P as u128) as u64);
    }

    #[test]
    fn sub_stays_nonnegative() {
        assert_eq!(sub_mod(3, 10, P), P - 7);
        assert_eq!(sub_mod(10, 3, P), 7);
        assert_eq!(sub_mod(5, 5, P), 0);
    }

    #[test]
    fn mul_large_operands() {
        let big = (1u64 << 62) + 12345;
        let expected = ((big as u128 * big as u128) % P as u128) as u64;
        assert_eq!(mul_mod(big, big, P), expected);
    }

    #[test]
    fn pow_matches_naive() {
        for base in [0u64, 1, 2, 7, 123456789] {
            let mut naive = 1u64;
            for e in 0..20u64 {
                assert_eq!(pow_mod(base, e, P), naive, "base={base}, e={e}");
                naive = mul_mod(naive, base, P);
            }
        }
        assert_eq!(pow_mod(5, 100, 1), 0);
    }

    #[test]
    fn mersenne_fast_path_matches_the_generic_reduction() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let p = HP_PRIME;
        let edges = [0u64, 1, p - 1, p, u64::MAX];
        for &a in &edges {
            assert_eq!(reduce_hp(a as u128), a % p, "reduce {a}");
            for &b in &edges {
                assert_eq!(mul_mod_hp(a, b), mul_mod(a, b, p), "{a} * {b}");
            }
        }
        assert_eq!(reduce_hp(u128::MAX), (u128::MAX % p as u128) as u64);
        let mut rng = StdRng::seed_from_u64(0x61);
        for _ in 0..10_000 {
            let (a, b): (u64, u64) = (rng.gen(), rng.gen());
            assert_eq!(mul_mod_hp(a, b), mul_mod(a, b, p), "{a} * {b}");
            assert_eq!(reduce_hp(a as u128), a % p, "reduce {a}");
            // Operands already reduced, the shape HP-TestOut folds.
            let (a, b) = (a % p, b % p);
            assert_eq!(mul_mod_hp(a, b), mul_mod(a, b, p), "{a} * {b} reduced");
        }
    }

    #[test]
    fn fermat_inverse() {
        for a in [1u64, 2, 17, 999_999_999, P - 1] {
            let inv = inv_mod(a, P).unwrap();
            assert_eq!(mul_mod(a, inv, P), 1);
        }
        assert_eq!(inv_mod(0, P), None);
        assert_eq!(inv_mod(P, P), None, "multiples of p have no inverse");
    }
}
