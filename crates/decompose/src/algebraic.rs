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
//!   `%` per neighbor, and the caller's scratch is not touched.
//! * Otherwise, for 2 or 3 digits over an odd `q` up to [`ROOT_PATH_MAX_Q`], the agreements are
//!   counted rather than searched for: `ϕ_y` agrees with `ϕ_χ` exactly at the roots of the
//!   difference `a₀ + a₁α + a₂α²`, which the quadratic formula gives in closed form from the
//!   field's inverse and square-root tables.  Each neighbor adds its roots to a histogram of
//!   `q` counters in the caller's scratch, and the answer is the smallest `α` with the fewest
//!   hits: `O(q + deg)` per vertex.
//! * Every other family (4 or more digits, `q = 2`, or `q` above the table bound) splits
//!   every color's digits once into a row of the caller's scratch, and each further `α`
//!   costs one row of `α`-powers plus, per neighbor, a multiply-add pass over its row and a
//!   single `% q`: `O(q·deg)` per vertex in the worst case.  The unreduced sum is at most
//!   `digits·(q − 1)²`; [`PolynomialFamily::new`] asserts that it fits in a `u64`, and
//!   [`choose_prime_field`] stays far inside that bound.
//!
//! Both paths return the same `α`.  [`PolynomialFamily::evaluate`] remains the reference
//! evaluation, used by [`PolynomialFamily::pair_color`] and the tests.

use std::sync::OnceLock;

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

/// The largest field [`PolynomialFamily::best_alpha`] counts roots over; a larger field keeps
/// the scan.  At this bound the field's tables take 96 KiB per family and the histogram 32 KiB
/// of the caller's scratch, so a caller-built field near `2³¹` never allocates gigabytes.
/// Fields this large are Linial-like (`q` above the degree), where the scan stops within a
/// few `α`; root counting pays off where `q` is far below the degree, as in the defective
/// steps at the hubs of a star-forest union (`q = 107` at degree 4147).
pub const ROOT_PATH_MAX_Q: u64 = 1 << 12;

/// A polynomial function family `{ϕ_χ : F_q → F_q}` for colors `χ ∈ [0, colors)`.
///
/// A family with 2 or 3 digits over an odd `q` up to [`ROOT_PATH_MAX_Q`] carries the inverse and
/// square-root tables of `F_q` that [`PolynomialFamily::best_alpha`] counts roots with.  They
/// are built on that path's first use, not by [`PolynomialFamily::new`], because
/// [`choose_prime_field`] builds candidate families it never uses; equality, cloning and
/// `Debug` see only `(q, digits, colors)` (a clone keeps tables already built).
#[derive(Clone)]
pub struct PolynomialFamily {
    /// The prime field size (both `|A|` and `|B|`).
    pub q: u64,
    /// Number of coefficients per polynomial (`degree + 1`).
    pub digits: u32,
    /// Number of colors the family can encode (`q^digits ≥ colors`).
    pub colors: u64,
    /// Inverse and square-root tables of `F_q`, built lazily for the root path.
    tables: OnceLock<FieldTables>,
}

impl PartialEq for PolynomialFamily {
    fn eq(&self, other: &Self) -> bool {
        (self.q, self.digits, self.colors) == (other.q, other.digits, other.colors)
    }
}

impl Eq for PolynomialFamily {}

impl std::fmt::Debug for PolynomialFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolynomialFamily")
            .field("q", &self.q)
            .field("digits", &self.digits)
            .field("colors", &self.colors)
            .finish()
    }
}

/// Arithmetic of an odd prime field `F_q`, `q ≤ ROOT_PATH_MAX_Q`: division by `q` without a
/// hardware divide, and the inverse and square-root tables.
#[derive(Clone)]
struct FieldTables {
    q: u64,
    /// `⌊2⁶⁴ / q⌋`.  `⌊x·barrett / 2⁶⁴⌋` is `⌊x / q⌋` or one less, and for `x < 2⁶⁴ / q`
    /// (every operand here is below `20·q³`) one less only when `q` divides `x`.
    barrett: u64,
    /// `inverse[x] = x⁻¹` for `x ≠ 0` (`inverse[0]` is unused).
    inverse: Box<[u32]>,
    /// `half_inverse[x] = (2x)⁻¹` for `x ∈ [1, 2q)`, `x ≠ q`: indexed by a shifted coefficient,
    /// so the quadratic case needs no reduction before its lookup.
    half_inverse: Box<[u32]>,
    /// The square roots of each `disc ∈ F_q`, indexed by `disc`.
    sqrt: Box<[SquareRoot]>,
}

/// One square root `root` of a field element, with masks that send the roots `±root` to the
/// trash counter of the histogram when they do not exist: both for a non-residue, the
/// second for zero (a double root counts once).  The masks are data rather than a branch
/// because whether an element is a residue is a coin flip.
#[derive(Clone, Copy)]
struct SquareRoot {
    root: u32,
    skip_first: u32,
    skip_second: u32,
}

impl FieldTables {
    fn new(q: u64) -> Self {
        let n = q as usize;
        let mut inverse = vec![0u32; n];
        inverse[1] = 1;
        // q = (q / x)·x + q mod x, so x⁻¹ = −(q / x)·(q mod x)⁻¹.
        for x in 2..n {
            let back = u64::from(inverse[n % x]);
            inverse[x] = ((q - (q / x as u64) * back % q) % q) as u32;
        }
        let mut sqrt = vec![SquareRoot { root: 0, skip_first: !0, skip_second: !0 }; n];
        sqrt[0].skip_first = 0;
        for x in 1..=q / 2 {
            sqrt[(x * x % q) as usize] =
                SquareRoot { root: x as u32, skip_first: 0, skip_second: 0 };
        }
        let half_inverse = (0..2 * n).map(|x| inverse[2 * x % n]).collect();
        FieldTables {
            q,
            barrett: u64::MAX / q,
            inverse: inverse.into(),
            half_inverse,
            sqrt: sqrt.into(),
        }
    }

    /// `(x / q, x mod q)`, by Barrett reduction: cheaper than a hardware divide, and its
    /// correction branch is rarely taken.
    fn div_rem(&self, x: u64) -> (u64, u64) {
        let quotient = ((u128::from(x) * u128::from(self.barrett)) >> 64) as u64;
        let rem = x - quotient * self.q;
        if rem >= self.q {
            (quotient + 1, rem - self.q)
        } else {
            (quotient, rem)
        }
    }

    fn rem(&self, x: u64) -> u64 {
        self.div_rem(x).1
    }

    /// The base-`q` digits of `value < q³`.
    fn digits(&self, value: u64) -> [u64; 3] {
        let (high, d0) = self.div_rem(value);
        let (d2, d1) = self.div_rem(high);
        [d0, d1, d2]
    }

    /// The roots of the difference `ϕ_y − ϕ_own` of two distinct colors with digits `own` and
    /// `y`, as two slots in `0..=q`: a double root appears once, and `q` stands for "no root".
    fn roots(&self, own: [u64; 3], y: [u64; 3]) -> [u64; 2] {
        let q = self.q;
        // The coefficients a₀ + a₁α + a₂α² of the difference, each shifted by q into [1, 2q).
        let [a0, a1, a2] = [0, 1, 2].map(|i| y[i] + q - own[i]);
        if y[2] == own[2] {
            // Linear (a₂ = 0): the root −a₀·a₁⁻¹, none when a₁ = 0 too (then a₀ ≠ 0).
            if y[1] == own[1] {
                return [q, q];
            }
            let inverse = u64::from(self.inverse[self.rem(a1) as usize]);
            return [self.rem((2 * q - a0) * inverse), q];
        }
        // (−a₁ ± √disc)·(2a₂)⁻¹ with disc = a₁² − 4a₀a₂, shifted by 16q² to stay positive.
        let SquareRoot { root, skip_first, skip_second } =
            self.sqrt[self.rem(a1 * a1 + 16 * q * q - 4 * a0 * a2) as usize];
        let (root, half) = (u64::from(root), u64::from(self.half_inverse[a2 as usize]));
        let first = self.rem((2 * q - a1 + root) * half);
        let second = self.rem((3 * q - a1 - root) * half);
        [(first, skip_first), (second, skip_second)]
            .map(|(r, skip)| r + ((q - r) & u64::from(skip)))
    }
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
        PolynomialFamily { q, digits, colors, tables: OnceLock::new() }
    }

    /// Whether [`PolynomialFamily::best_alpha`] counts roots (2 or 3 digits over an odd
    /// `q` up to [`ROOT_PATH_MAX_Q`]) rather than scanning `α`.
    pub fn counts_roots(&self) -> bool {
        matches!(self.digits, 2 | 3) && self.q != 2 && self.q <= ROOT_PATH_MAX_Q
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
    /// which neighbor colors they pass (all of them, or only the parents').  `neighbors` is
    /// walked more than once (it is cloned per pass), so a caller can pass colors read in
    /// place, such as a node's inbox, instead of copying them into a buffer first.
    ///
    /// `α = 0` is decided first, from the lowest digits alone (`ϕ_y(0) = y mod q`): one `%` per
    /// neighbor, and if no neighbor collides the answer is 0 without touching `scratch`.
    /// Otherwise one of two paths, chosen by the family alone, finds the same `α`:
    ///
    /// * **Root counting** (2 or 3 digits over an odd `q` up to [`ROOT_PATH_MAX_Q`], see
    ///   [`PolynomialFamily::counts_roots`]).  A neighbor `y` agrees with `color` exactly at
    ///   the roots of the difference `ϕ_y − ϕ_color = a₀ + a₁α + a₂α²`, a nonzero polynomial:
    ///   none when `a₂ = a₁ = 0`, `−a₀·a₁⁻¹` when only `a₂ = 0`, and `(−a₁ ± √disc)·(2a₂)⁻¹`
    ///   otherwise (a double root once, none for a non-residue `disc`).  Each
    ///   differently-colored neighbor's difference is formed once and its roots are counted
    ///   into a histogram; the smallest `α` with the fewest hits is the answer.  That is
    ///   `O(q + deg)` work against the scan's `O(q·deg)`.  The field's inverse and square-root
    ///   tables are built on the family's first root count.
    /// * **Scan** (every other family).  The base-`q` digits of `color` and of every
    ///   differently-colored neighbor are written once into `scratch`, one row of `digits`
    ///   coefficients each, and every further `α` is tested against those rows with one row
    ///   of `α`-powers: a multiply-add pass and a single `% q` per neighbor (the sum stays
    ///   below `digits·(q − 1)² < 2⁶⁴`, which [`PolynomialFamily::new`] asserts).  The scan
    ///   stops at the first `α` without collisions, and stops counting an `α` as soon as it
    ///   ties the best count so far (it can no longer be the smallest minimizer).
    ///
    /// `scratch` is caller-owned.  It is left alone when `α = 0` has no collision.  Otherwise
    /// it is cleared and then holds `q + 1` hit counters (root counting: one per `α` and one
    /// for neighbors without a root) or `(2 + m)·digits` digit-row words (scan, `m`
    /// differently-colored neighbors).  Its contents are unspecified on entry and on return.
    /// A caller that keeps it across calls reallocates it only when a call needs more words
    /// than every earlier one.
    ///
    /// # Panics
    ///
    /// Panics if `color` or a differently-colored neighbor is `≥ colors`.
    pub fn best_alpha<'n, N>(&self, color: u64, neighbors: N, scratch: &mut Vec<u64>) -> u64
    where
        N: IntoIterator<Item = &'n u64>,
        N::IntoIter: Clone,
    {
        let neighbors = neighbors.into_iter();
        let q = self.q;
        assert!(color < self.colors, "color {color} out of range (< {})", self.colors);
        let own_low = color % q;
        let (mut others, mut collisions) = (0, 0);
        for &y in neighbors.clone().filter(|&&y| y != color) {
            assert!(y < self.colors, "color {y} out of range (< {})", self.colors);
            others += 1;
            collisions += usize::from(y % q == own_low);
        }
        if collisions == 0 {
            0
        } else if self.counts_roots() {
            self.fewest_roots(color, neighbors, scratch)
        } else {
            self.scan(color, neighbors, others, collisions, scratch)
        }
    }

    /// The root-counting path of [`PolynomialFamily::best_alpha`].
    fn fewest_roots<'n>(
        &self,
        color: u64,
        neighbors: impl Iterator<Item = &'n u64>,
        hits: &mut Vec<u64>,
    ) -> u64 {
        let q = self.q;
        let tables = self.tables.get_or_init(|| FieldTables::new(q));
        let own = tables.digits(color);
        // One counter per α, then one for "no root".
        hits.clear();
        hits.resize(q as usize + 1, 0);
        for &y in neighbors.filter(|&&y| y != color) {
            for root in tables.roots(own, tables.digits(y)) {
                hits[root as usize] += 1;
            }
        }
        let (mut best_alpha, mut best) = (0, hits[0]);
        for (alpha, &count) in hits[..q as usize].iter().enumerate() {
            if count < best {
                (best_alpha, best) = (alpha, count);
                if best == 0 {
                    break;
                }
            }
        }
        best_alpha as u64
    }

    /// The scanning path of [`PolynomialFamily::best_alpha`], given the number of
    /// differently-colored neighbors (`others`) and the `collisions` at `α = 0`.
    fn scan<'n>(
        &self,
        color: u64,
        neighbors: impl Iterator<Item = &'n u64>,
        others: usize,
        collisions: usize,
        rows: &mut Vec<u64>,
    ) -> u64 {
        let q = self.q;
        // Layout: the α-powers row, the own row, then one row per differently-colored neighbor.
        let d = self.digits as usize;
        rows.clear();
        rows.reserve((2 + others) * d);
        rows.resize(d, 0);
        let mut split = |mut value: u64| {
            for _ in 0..d {
                rows.push(value % q);
                value /= q;
            }
        };
        split(color);
        neighbors.filter(|&&y| y != color).for_each(|&y| split(y));
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

    /// Half the draws: a prime `q ≤ 103` with 1–4 digits (both paths, `q = 2` included).  The
    /// other half: a prime `103 ≤ q ≤ 229` with 2–3 digits, the root path over fields as large
    /// as the color-hubs family (`q = 107`) and beyond.
    fn fields() -> impl Strategy<Value = (u64, u32)> {
        prop_oneof![(2u64..102, 1u32..5), (102u64..230, 2u32..4)]
            .prop_map(|(x, d)| (next_prime(x), d))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random fields from [`fields`]; neighbor multisets that may be empty and may repeat
        /// the vertex's own color.  With `saturate = k > 0`, every α gets `k`
        /// colliding neighbors (digits 0 and 1 shifted by `(−δα, +δ)`, so the two polynomials
        /// agree exactly at α), so no α has fewer than `k` collisions.
        #[test]
        fn best_alpha_matches_the_naive_scan(
            (q, digits) in fields(),
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
        /// a large family (q = 101, 4 digits, 40 neighbors).  Calls vary the field (see
        /// [`fields`]), the color and the neighbors; see [`reuse_call`] for the modes.
        #[test]
        fn best_alpha_reuses_its_scratch(
            calls in proptest::collection::vec(
                (
                    fields(),
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

    /// The neighbor color of the 3-digit `family` whose polynomial exceeds `color`'s by
    /// `a₀ + a₁α + a₂α²`.
    fn shifted(family: &PolynomialFamily, color: u64, a: [u64; 3]) -> u64 {
        let q = family.q;
        (0..3).rev().fold(0, |y, i| y * q + (color / q.pow(i) % q + a[i as usize]) % q)
    }

    /// `best_alpha` on `neighbors` around `color`, checked against [`naive_scan`] and `expected`.
    fn assert_best_alpha(family: &PolynomialFamily, color: u64, neighbors: &[u64], expected: u64) {
        assert_eq!(naive_scan(family, color, neighbors).0, expected, "the case is mis-built");
        assert_eq!(family.best_alpha(color, neighbors, &mut Vec::new()), expected);
    }

    /// Two neighbors whose linear differences `δ·(α − root)`, `δ ∈ {1, 2}`, vanish at each of
    /// `roots` (only their lowest two digits differ from `color`'s).
    fn linear_hits(family: &PolynomialFamily, color: u64, roots: &[u64]) -> Vec<u64> {
        let q = family.q;
        roots
            .iter()
            .flat_map(|&root| {
                [1, 2].map(|delta| shifted(family, color, [q - delta * root % q, delta, 0]))
            })
            .filter(|&y| y != color)
            .collect()
    }

    #[test]
    fn root_path_counts_linear_differences() {
        let family = PolynomialFamily::new(107, 107 * 107 * 107);
        assert!(family.counts_roots());
        let q = family.q;
        let color = 5 + 7 * q + 9 * q * q;
        // a₂ = 0: roots at 0, 1 and 2; a₂ = a₁ = 0: no root at all.
        let neighbors: Vec<u64> = [[0, 1, 0], [3, q - 3, 0], [q - 4, 2, 0], [1, 0, 0], [5, 0, 0]]
            .iter()
            .map(|&a| shifted(&family, color, a))
            .collect();
        assert_best_alpha(&family, color, &neighbors, 3);
        // The 2-digit family over the same field is linear throughout.
        let family = PolynomialFamily::new(107, 107 * 107);
        let color = 40 + 2 * q;
        // α − r vanishes at r = 0, 1, 2; the constant 1 nowhere.
        let neighbors = [40 + 3 * q, 39 + 3 * q, 38 + 3 * q, 41 + 2 * q];
        assert_best_alpha(&family, color, &neighbors, 3);
    }

    /// `(α − 3)²` has a double root, counted once: every other α has two hits, α = 3 one.
    #[test]
    fn root_path_counts_a_double_root_once() {
        let family = PolynomialFamily::new(107, 107 * 107 * 107);
        let (q, color) = (family.q, 1 + 50 * 107 + 106 * 107 * 107);
        let others: Vec<u64> = (0..q).filter(|&alpha| alpha != 3).collect();
        let mut neighbors = linear_hits(&family, color, &others);
        neighbors.push(shifted(&family, color, [9, q - 6, 1]));
        assert_best_alpha(&family, color, &neighbors, 3);
    }

    /// Over `F_107` (`q ≡ 3 mod 4`, `q ≡ 2 mod 3`), `α² + 1` and `α² + α + 1` have the
    /// non-residue discriminants −4 and −3, so no roots; every α ≥ 1 has two linear hits and
    /// α = 0 one, so any spurious root (0 and 53 are the ones a zero square root would give)
    /// moves the answer.
    #[test]
    fn root_path_skips_non_residue_discriminants() {
        let family = PolynomialFamily::new(107, 107 * 107 * 107);
        let (q, color) = (family.q, 17 + 3 * 107 + 88 * 107 * 107);
        let all: Vec<u64> = (1..q).collect();
        let mut neighbors = linear_hits(&family, color, &all);
        neighbors.push(shifted(&family, color, [0, 1, 0]));
        neighbors.push(shifted(&family, color, [1, 0, 1]));
        neighbors.push(shifted(&family, color, [1, 1, 1]));
        assert_best_alpha(&family, color, &neighbors, 0);
    }

    /// Every color against every pair of neighbor colors, over `F_2` (always the scan) and
    /// `F_3` (the root path for 2 and 3 digits).
    #[test]
    fn smallest_fields_match_the_naive_scan_exhaustively() {
        let mut scratch = Vec::new();
        for (q, digits) in [(2u64, 2u32), (2, 3), (3, 2), (3, 3)] {
            let family = PolynomialFamily::new(q, q.pow(digits));
            assert_eq!(family.counts_roots(), q == 3);
            for color in 0..family.colors {
                for y in 0..family.colors {
                    for z in 0..family.colors {
                        let neighbors = [y, z];
                        let alpha = family.best_alpha(color, &neighbors, &mut scratch);
                        assert_eq!(
                            alpha,
                            naive_scan(&family, color, &neighbors).0,
                            "{neighbors:?}"
                        );
                    }
                }
            }
        }
    }

    /// The `best_alpha/hub` bench instances: q = 107, 3 digits, 4147 uniform neighbors.
    #[test]
    fn hub_bench_instances_match_the_naive_scan() {
        let family = PolynomialFamily::new(107, 107 * 107 * 107);
        // SplitMix64 from seed 1, as in `benches/recolor.rs`.
        let mut state = 1u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut scratch = Vec::new();
        for _ in 0..8 {
            let color = next() % family.colors;
            let neighbors: Vec<u64> = (0..4147).map(|_| next() % family.colors).collect();
            let alpha = family.best_alpha(color, &neighbors, &mut scratch);
            assert_eq!(alpha, naive_scan(&family, color, &neighbors).0);
        }
    }

    #[test]
    fn field_tables_invert_and_take_square_roots() {
        for q in (3..=ROOT_PATH_MAX_Q).filter(|&q| is_prime(q)) {
            let tables = FieldTables::new(q);
            for x in 1..q {
                assert_eq!(x * u64::from(tables.inverse[x as usize]) % q, 1, "q = {q}, x = {x}");
            }
            for x in (1..2 * q).filter(|&x| x != q) {
                assert_eq!(2 * x * u64::from(tables.half_inverse[x as usize]) % q, 1);
            }
            let mut squares = vec![false; q as usize];
            (0..q).for_each(|r| squares[(r * r % q) as usize] = true);
            let mut residues = 0;
            for (x, entry) in tables.sqrt.iter().enumerate() {
                let exists = squares[x];
                assert_eq!(entry.skip_first == 0, exists, "q = {q}, x = {x}");
                assert_eq!(entry.skip_second == 0, exists && x != 0, "q = {q}, x = {x}");
                if exists {
                    assert_eq!(u64::from(entry.root).pow(2) % q, x as u64);
                    residues += 1;
                }
            }
            assert_eq!(residues, 1 + (q - 1) / 2, "q = {q}: 0 and (q − 1)/2 non-zero squares");
        }
    }

    #[test]
    fn barrett_division_is_exact() {
        for q in [3u64, 107, 4093] {
            let tables = FieldTables::new(q);
            let top = 20 * q.pow(3);
            let large = (1..=64).map(|i| top - i * (top / 65));
            for x in (0..5000).chain(large).chain((1..5000).map(|k| k * q)) {
                assert_eq!(tables.div_rem(x), (x / q, x % q), "q = {q}, x = {x}");
            }
        }
    }

    #[test]
    fn root_path_covers_odd_fields_up_to_the_table_bound() {
        let largest = (3..=ROOT_PATH_MAX_Q).rev().find(|&q| is_prime(q)).unwrap();
        let root = |q: u64, digits: u32| PolynomialFamily::new(q, q.pow(digits)).counts_roots();
        assert!(root(3, 2) && root(107, 3) && root(largest, 2) && root(largest, 3));
        assert!(!root(2, 2) && !root(2, 3) && !root(107, 1) && !root(107, 4));
        assert!(!root(next_prime(ROOT_PATH_MAX_Q), 2));
        // At the bound: a linear difference and a double root, against the reference.
        let family = PolynomialFamily::new(largest, largest.pow(3));
        let q = largest;
        let color = 11 + 13 * q + 17 * q * q;
        let neighbors: Vec<u64> = [[0, 1, 0], [q - 1, 1, 0], [4, q - 4, 1], [q - 2, 1, 0]]
            .iter()
            .map(|&a| shifted(&family, color, a))
            .collect();
        assert_best_alpha(&family, color, &neighbors, 3);
    }

    /// The lazily built tables are invisible to equality and `Debug`.
    #[test]
    fn family_identity_ignores_the_tables() {
        let used = PolynomialFamily::new(107, 1000);
        used.best_alpha(0, &[107], &mut Vec::new());
        let fresh = PolynomialFamily::new(107, 1000);
        assert_eq!(used, fresh);
        assert_eq!(format!("{used:?}"), "PolynomialFamily { q: 107, digits: 2, colors: 1000 }");
        assert_eq!(used.clone(), fresh);
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
