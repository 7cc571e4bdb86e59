//! Low-agreement function families from polynomials over prime fields.
//!
//! Both Linial's `O(Δ²)`-coloring and Kuhn's defective coloring (Lemma 2.1 of the paper), as
//! well as the paper's own Procedure Arb-Recolor (Algorithm 3), rely on a family of functions
//! `{ϕ_χ : A → B}` indexed by the current colors `χ ∈ [M]`, with the property that any two
//! *distinct* colors agree on few elements of `A`.
//!
//! The classical construction (essentially a Reed–Solomon code) takes a prime `q`, sets
//! `A = B = F_q = {0, …, q−1}`, writes `χ` in base `q` as `(c_0, …, c_k)` and lets
//! `ϕ_χ(α) = c_0 + c_1 α + … + c_k α^k (mod q)`.  Two distinct polynomials of degree ≤ `k`
//! agree on at most `k` points, so the family has *agreement* `k = ⌈log_q M⌉ − 1 < log_q M`.
//!
//! [`PolynomialFamily`] packages this construction; [`choose_prime_field`] picks the smallest
//! prime `q` satisfying the constraint `q > agreement · slack` required by the recoloring
//! lemmas (where `slack` is `Δ` for Linial, `(Δ − d′)/(d − d′ + 1)` for defective/arbdefective
//! recoloring).  [`PolynomialFamily::best_alpha`] is the one recoloring decision all three
//! make, and the hot loop of every recoloring step:
//!
//! * `α = 0` is decided from the lowest digits alone, since `ϕ_y(0) = y mod q`.  When no
//!   differently-colored neighbor shares the vertex's lowest digit, the answer is 0 after one
//!   `%` per neighbor.
//! * Otherwise every color's digits are split once into a row of a caller-owned scratch
//!   `Vec` (its contents unspecified between calls), and each further `α` costs one row of
//!   `α`-powers plus, per neighbor, a multiply-add pass over its row and a single `% q`.
//!   [`PolynomialFamily::evaluate`] remains the reference evaluation, used by
//!   [`PolynomialFamily::pair_color`].
//! * The unreduced sum is at most `digits·(q − 1)²`; [`PolynomialFamily::new`] asserts that it
//!   fits in a `u64`, and [`choose_prime_field`] stays far inside that bound.

/// Whether `x` is prime (deterministic trial division; the fields used here are tiny).
pub fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x % 2 == 0 {
        return x == 2;
    }
    let mut d = 3u64;
    while d.saturating_mul(d) <= x {
        if x % d == 0 {
            return false;
        }
        d += 2;
    }
    true
}

/// The smallest prime that is at least `x`.
pub fn next_prime(mut x: u64) -> u64 {
    if x <= 2 {
        return 2;
    }
    if x % 2 == 0 {
        x += 1;
    }
    while !is_prime(x) {
        x += 2;
    }
    x
}

/// Number of base-`q` digits of `m − 1` (i.e. how many coefficients are needed to encode every
/// color in `0..m`); at least 1.
pub fn digits_needed(m: u64, q: u64) -> u32 {
    assert!(q >= 2, "field size must be at least 2");
    if m <= 1 {
        return 1;
    }
    let mut digits = 0u32;
    let mut value = m - 1;
    while value > 0 {
        value /= q;
        digits += 1;
    }
    digits
}

/// A polynomial function family `{ϕ_χ : F_q → F_q}` for colors `χ ∈ [0, colors)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolynomialFamily {
    /// The prime field size (both `|A|` and `|B|`).
    pub q: u64,
    /// Number of coefficients per polynomial (`degree + 1`).
    pub digits: u32,
    /// Number of colors the family can encode (`q^digits ≥ colors`).
    pub colors: u64,
}

impl PolynomialFamily {
    /// Builds the family over `F_q` capable of encoding `colors` distinct colors.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not prime, `colors == 0`, or `digits·(q − 1)²` (the largest unreduced
    /// sum [`PolynomialFamily::best_alpha`] forms) does not fit in a `u64`.
    pub fn new(q: u64, colors: u64) -> Self {
        assert!(is_prime(q), "q = {q} must be prime");
        assert!(colors > 0, "the family must encode at least one color");
        let digits = digits_needed(colors, q);
        assert!(
            (q - 1).checked_mul(q - 1).and_then(|s| s.checked_mul(u64::from(digits))).is_some(),
            "digits·(q − 1)² overflows u64 for q = {q}, digits = {digits}"
        );
        PolynomialFamily { q, digits, colors }
    }

    /// Maximum number of points on which two distinct colors' polynomials can agree
    /// (the polynomial degree, `digits − 1`).
    pub fn agreement(&self) -> u64 {
        u64::from(self.digits) - 1
    }

    /// Number of distinct new colors `(α, ϕ_χ(α))` the recoloring step can produce: `q²`.
    pub fn new_color_count(&self) -> u64 {
        self.q * self.q
    }

    /// Evaluates `ϕ_color(alpha)` in `F_q`.
    ///
    /// # Panics
    ///
    /// Panics if `color ≥ colors` or `alpha ≥ q`.
    pub fn evaluate(&self, color: u64, alpha: u64) -> u64 {
        assert!(color < self.colors, "color {color} out of range (< {})", self.colors);
        assert!(alpha < self.q, "alpha {alpha} outside the field F_{}", self.q);
        // Little-endian power sum over the base-q digits of `color`: Σ c_i · α^i.
        let (mut value, mut power, mut acc) = (color, 1, 0);
        for _ in 0..self.digits {
            acc = (acc + value % self.q * power) % self.q;
            power = power * alpha % self.q;
            value /= self.q;
        }
        acc
    }

    /// The new color encoding the pair `(α, ϕ_color(α))`, as a single integer `α · q + ϕ`.
    pub fn pair_color(&self, color: u64, alpha: u64) -> u64 {
        alpha * self.q + self.evaluate(color, alpha)
    }

    /// The recoloring decision of Linial's step, Kuhn's defective coloring and Arb-Recolor:
    /// the smallest `α ∈ F_q` minimizing the number of `neighbors` whose color differs from
    /// `color` and whose polynomial agrees with `ϕ_color` at `α`.  The callers differ only in
    /// which neighbor colors they pass (all of them, or only the parents').
    ///
    /// `α = 0` is decided first, from the lowest digits alone (`ϕ_y(0) = y mod q`): one `%` per
    /// neighbor, and if no neighbor collides the answer is 0 without touching `rows`.
    /// Otherwise the base-`q` digits of `color` and of every differently-colored neighbor are
    /// written once into `rows`, one row of `digits` coefficients each, and every further `α`
    /// is tested against those rows with one row of `α`-powers: a multiply-add pass and a
    /// single `% q` per neighbor (the sum stays below `digits·(q − 1)² < 2⁶⁴`, which
    /// [`PolynomialFamily::new`] asserts).
    ///
    /// The scan stops at the first `α` without collisions, and stops counting an `α` as soon
    /// as it ties the best count so far (it can no longer be the smallest minimizer).
    ///
    /// `rows` is caller-owned scratch: it is grown to `(2 + neighbors.len())·digits` words when
    /// `α = 0` collides and left alone otherwise, and its contents are unspecified on entry and
    /// on return.  A caller that keeps it across calls reallocates it only when a call needs
    /// more words than every earlier one.
    ///
    /// # Panics
    ///
    /// Panics if `color` or a differently-colored neighbor is `≥ colors`.
    pub fn best_alpha(&self, color: u64, neighbors: &[u64], rows: &mut Vec<u64>) -> u64 {
        let q = self.q;
        assert!(color < self.colors, "color {color} out of range (< {})", self.colors);
        let own_low = color % q;
        let mut collisions = 0;
        for &y in neighbors.iter().filter(|&&y| y != color) {
            assert!(y < self.colors, "color {y} out of range (< {})", self.colors);
            collisions += usize::from(y % q == own_low);
        }
        if collisions == 0 {
            return 0;
        }

        // Layout: the α-powers row, the own row, then one row per differently-colored neighbor.
        let d = self.digits as usize;
        rows.clear();
        rows.reserve((2 + neighbors.len()) * d);
        rows.resize(d, 0);
        let mut split = |mut value: u64| {
            for _ in 0..d {
                rows.push(value % q);
                value /= q;
            }
        };
        split(color);
        neighbors.iter().filter(|&&y| y != color).for_each(|&y| split(y));
        let (powers, rows) = rows.split_at_mut(d);
        let (own, others) = rows.split_at(d);

        let (mut best_alpha, mut best) = (0, collisions);
        for alpha in 1..q {
            let mut power = 1;
            for slot in powers.iter_mut() {
                *slot = power;
                power = power * alpha % q;
            }
            let at_alpha =
                |row: &[u64]| row.iter().zip(&*powers).map(|(c, p)| c * p).sum::<u64>() % q;
            let target = at_alpha(own);
            let mut collisions = 0;
            for row in others.chunks_exact(d) {
                if at_alpha(row) == target {
                    collisions += 1;
                    if collisions == best {
                        break;
                    }
                }
            }
            if collisions < best {
                best = collisions;
                best_alpha = alpha;
                if best == 0 {
                    break;
                }
            }
        }
        best_alpha
    }
}

/// Picks the smallest prime field size `q` such that the family over `F_q` encoding `colors`
/// colors has `q > agreement(q) · slack`, where `slack` is the factor required by the
/// recoloring lemma in use (`Δ` for Linial's zero-defect step; `⌈(Δ − d′)/(d − d′ + 1)⌉` for
/// the defective/arbdefective steps).
///
/// The returned family always satisfies the constraint, so a suitable `α` is guaranteed to
/// exist for every vertex.
///
/// For `slack < 2³¹` and `colors ≤ 2⁶²` the returned `q` is at most `2³¹ + 11`, with at most
/// three digits once `q ≥ 2²²` and at most two once `q > 2³¹`, so `digits·(q − 1)²` stays
/// below `3·2⁶²`, inside the `u64` bound [`PolynomialFamily::new`] asserts.  The recoloring
/// schedules pass `slack ≤ Δ`, and their fields are far smaller (`q = 107` at `Δ ≈ 4000`).
pub fn choose_prime_field(colors: u64, slack: u64) -> PolynomialFamily {
    let colors = colors.max(1);
    // Start from a small prime and grow until the constraint holds.  The agreement shrinks as
    // q grows, so this terminates quickly.
    let mut q = next_prime(3.max(slack + 1));
    loop {
        let family = PolynomialFamily::new(q, colors);
        if family.q > family.agreement() * slack {
            return family;
        }
        q = next_prime(q + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primality_and_next_prime() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(1));
        assert!(!is_prime(0));
        assert!(!is_prime(9));
        assert!(is_prime(97));
        assert!(!is_prime(91));
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(97), 97);
        assert_eq!(next_prime(98), 101);
    }

    #[test]
    fn digit_counts() {
        assert_eq!(digits_needed(1, 5), 1);
        assert_eq!(digits_needed(5, 5), 1);
        assert_eq!(digits_needed(6, 5), 2);
        assert_eq!(digits_needed(25, 5), 2);
        assert_eq!(digits_needed(26, 5), 3);
    }

    #[test]
    fn distinct_colors_agree_on_few_points() {
        let family = PolynomialFamily::new(11, 500);
        let k = family.agreement();
        for x in (0..500).step_by(37) {
            for y in (0..500).step_by(41) {
                if x == y {
                    continue;
                }
                let agreements = (0..family.q)
                    .filter(|&a| family.evaluate(x, a) == family.evaluate(y, a))
                    .count();
                assert!(
                    agreements as u64 <= k,
                    "colors {x} and {y} agree on {agreements} > {k} points"
                );
            }
        }
    }

    #[test]
    fn pair_colors_are_injective_in_alpha_and_value() {
        let family = PolynomialFamily::new(7, 40);
        let c = family.pair_color(13, 3);
        assert_eq!(c, 3 * 7 + family.evaluate(13, 3));
        assert!(c < family.new_color_count());
    }

    #[test]
    fn choose_prime_field_satisfies_constraint() {
        for (colors, slack) in [(10u64, 3u64), (1000, 10), (1 << 20, 50), (5, 1), (2, 0)] {
            let family = choose_prime_field(colors, slack);
            assert!(
                family.q > family.agreement() * slack,
                "q = {}, k = {}, slack = {slack}",
                family.q,
                family.agreement()
            );
            assert!(u128::from(family.q).pow(family.digits) >= u128::from(colors));
        }
    }

    /// Reference for [`PolynomialFamily::best_alpha`]: count every α in full and return the
    /// smallest minimizer with its collision count.
    fn naive_scan(family: &PolynomialFamily, color: u64, neighbors: &[u64]) -> (u64, usize) {
        let collisions = |alpha| {
            let own = family.evaluate(color, alpha);
            neighbors.iter().filter(|&&y| y != color && family.evaluate(y, alpha) == own).count()
        };
        (0..family.q).map(|alpha| (alpha, collisions(alpha))).min_by_key(|&(a, c)| (c, a)).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random primes q ≤ 103 and digit counts 1–4; neighbor multisets that may be empty
        /// and may repeat the vertex's own color.  With `saturate = k > 0`, every α gets `k`
        /// colliding neighbors (digits 0 and 1 shifted by `(−δα, +δ)`, so the two polynomials
        /// agree exactly at α), so no α has fewer than `k` collisions.
        #[test]
        fn best_alpha_matches_the_naive_scan(
            (q, digits) in (2u64..102, 1u32..5).prop_map(|(x, d)| (next_prime(x), d)),
            (color_draw, colors_draw) in (0u64..1 << 40, 0u64..1 << 40),
            draws in proptest::collection::vec(0u64..1 << 40, 0..40),
            own_copies in 0usize..3,
            saturate in 0u64..4,
        ) {
            let (lo, hi) = (q.pow(digits - 1), q.pow(digits));
            let saturate = if digits >= 2 { saturate } else { 0 };
            let colors = if saturate > 0 { hi } else { lo + 1 + colors_draw % (hi - lo) };
            let family = PolynomialFamily::new(q, colors);
            prop_assert_eq!(family.digits, digits);
            let color = color_draw % colors;
            let mut neighbors: Vec<u64> = draws.iter().map(|&y| y % colors).collect();
            neighbors.extend(std::iter::repeat(color).take(own_copies));
            if saturate > 0 {
                let (c0, c1) = (color % q, color / q % q);
                let rest = color - c0 - c1 * q;
                for alpha in 0..q {
                    for k in 0..saturate {
                        let delta = 1 + k % (q - 1);
                        let shifted = (c1 + delta) % q * q + (c0 + q * q - delta * alpha) % q;
                        neighbors.push(rest + shifted);
                    }
                }
            }
            let (alpha, fewest) = naive_scan(&family, color, &neighbors);
            prop_assert!(fewest as u64 >= saturate);
            prop_assert_eq!(family.best_alpha(color, &neighbors, &mut Vec::new()), alpha);
        }

        /// One scratch `Vec` reused across a sequence of calls, after a first call that splits
        /// a large family (q = 101, 4 digits, 40 neighbors).  Calls vary q ≤ 103, 1–4 digits,
        /// the color and the neighbors; see [`reuse_call`] for the modes.
        #[test]
        fn best_alpha_reuses_its_scratch(
            calls in proptest::collection::vec(
                (
                    (2u64..102, 1u32..5).prop_map(|(x, d)| (next_prime(x), d)),
                    0u8..4,
                    0u64..1 << 40,
                    proptest::collection::vec(0u64..1 << 40, 0..24),
                ),
                1..8,
            ),
            first_draws in proptest::collection::vec(0u64..1 << 40, 40..41),
        ) {
            let mut rows = Vec::new();
            let first = ((101, 4), 3, first_draws[0], first_draws);
            for ((q, digits), mode, color_draw, draws) in std::iter::once(first).chain(calls) {
                let (family, color, neighbors) = reuse_call(q, digits, mode, color_draw, &draws);
                let before = rows.clone();
                let alpha = family.best_alpha(color, &neighbors, &mut rows);
                prop_assert_eq!(alpha, naive_scan(&family, color, &neighbors).0);
                if mode == 1 {
                    prop_assert_eq!(alpha, 0);
                    prop_assert_eq!(&rows, &before, "α = 0 without collisions touched the rows");
                }
                if mode == 2 && digits >= 2 && !neighbors.is_empty() {
                    prop_assert_eq!(alpha, 1);
                }
            }
        }
    }

    /// A call of [`best_alpha_reuses_its_scratch`] on the full family of `digits` digits over
    /// `F_q`.  The neighbors are the `draws` reduced into range and then, by `mode`: 0 left as
    /// they are; 1 given a low digit other than the color's, so `α = 0` has no collision; 2
    /// replaced by the color with digit 1 shifted by `δ ≠ 0` (`ϕ_y − ϕ_color = δα`, so they
    /// collide at `α = 0` and nowhere else) when `digits ≥ 2`; 3 given the color's low digit,
    /// so every one of them that differs from the color collides at `α = 0`.
    fn reuse_call(
        q: u64,
        digits: u32,
        mode: u8,
        color_draw: u64,
        draws: &[u64],
    ) -> (PolynomialFamily, u64, Vec<u64>) {
        let family = PolynomialFamily::new(q, q.pow(digits));
        let color = color_draw % family.colors;
        let (low, c1) = (color % q, color / q % q);
        let neighbors = draws
            .iter()
            .map(|&y| y % family.colors)
            .map(|y| match mode {
                1 => y - y % q + (low + 1 + y % (q - 1)) % q,
                2 if digits >= 2 => color - c1 * q + (c1 + 1 + y % (q - 1)) % q * q,
                3 => y - y % q + low,
                _ => y,
            })
            .collect();
        (family, color, neighbors)
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn best_alpha_rejects_out_of_range_neighbor_without_alpha_zero_collision() {
        // 12 mod 5 = 2 differs from the color's low digit 1, so α = 0 has no collision.
        let family = PolynomialFamily::new(5, 10);
        family.best_alpha(1, &[3, 12], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn family_rejects_overflowing_digit_rows() {
        // q = 2³² − 5 is prime; two digits give 2·(q − 1)² > 2⁶⁴.
        let _ = PolynomialFamily::new(4_294_967_291, 4_294_967_292);
    }

    #[test]
    fn chosen_fields_stay_inside_the_overflow_bound() {
        assert!(is_prime((1 << 31) + 11));
        for colors in [200_000u64, 1 << 40, 1 << 62] {
            for slack in [0u64, 3, 4147, (1 << 31) - 1] {
                let family = choose_prime_field(colors, slack);
                let sum = u128::from(family.digits) * u128::from(family.q - 1).pow(2);
                assert!(family.q <= (1 << 31) + 11 && sum < 3 << 62, "{family:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be prime")]
    fn non_prime_field_is_rejected() {
        let _ = PolynomialFamily::new(10, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn evaluate_rejects_out_of_range_color() {
        let family = PolynomialFamily::new(5, 10);
        family.evaluate(10, 0);
    }
}
