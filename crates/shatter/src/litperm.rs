//! Permutations of a formula's literals.

use sbgc_formula::{Lit, PbFormula, Var};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// A permutation of the `2n` literals of an `n`-variable formula that
/// commutes with negation (`π(¬ℓ) = ¬π(ℓ)`) — the algebraic form of a
/// formula symmetry. Phase-shift symmetries (mapping a variable to its own
/// negation) are representable.
///
/// # Example
///
/// ```
/// use sbgc_formula::Var;
/// use sbgc_shatter::LitPermutation;
///
/// let a = Var::from_index(0);
/// let b = Var::from_index(1);
/// // Swap variables a and b.
/// let p = LitPermutation::from_var_swap(2, a, b);
/// assert_eq!(p.apply(a.positive()), b.positive());
/// assert_eq!(p.apply(a.negative()), b.negative());
/// assert!(!p.is_identity());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LitPermutation {
    /// `images[l.code()]` = code of the image literal.
    images: Vec<u32>,
}

impl LitPermutation {
    /// The identity on `num_vars` variables.
    pub fn identity(num_vars: usize) -> Self {
        LitPermutation { images: (0..2 * num_vars as u32).collect() }
    }

    /// Builds a permutation from a literal-code image table.
    ///
    /// Returns `None` if the table is not a bijection or does not commute
    /// with negation.
    pub fn from_images(images: Vec<u32>) -> Option<Self> {
        let n2 = images.len();
        if !n2.is_multiple_of(2) {
            return None;
        }
        let mut seen = vec![false; n2];
        for &img in &images {
            let i = img as usize;
            if i >= n2 || seen[i] {
                return None;
            }
            seen[i] = true;
        }
        // Negation consistency: π(¬ℓ) == ¬π(ℓ).
        for code in (0..n2).step_by(2) {
            if images[code] ^ 1 != images[code ^ 1] {
                return None;
            }
        }
        Some(LitPermutation { images })
    }

    /// The transposition of two variables (both phases), identity
    /// elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if either variable is out of range.
    pub fn from_var_swap(num_vars: usize, a: Var, b: Var) -> Self {
        let mut p = Self::identity(num_vars);
        let (pa, na) = (a.positive().code(), a.negative().code());
        let (pb, nb) = (b.positive().code(), b.negative().code());
        p.images.swap(pa, pb);
        p.images.swap(na, nb);
        p
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.images.len() / 2
    }

    /// The image of a literal.
    ///
    /// # Panics
    ///
    /// Panics if the literal is out of range.
    pub fn apply(&self, lit: Lit) -> Lit {
        Lit::from_code(self.images[lit.code()] as usize)
    }

    /// Returns `true` if every literal is fixed.
    pub fn is_identity(&self) -> bool {
        self.images.iter().enumerate().all(|(i, &img)| i == img as usize)
    }

    /// Variables whose positive literal is moved (the support), ascending.
    pub fn support(&self) -> Vec<Var> {
        (0..self.num_vars())
            .map(Var::from_index)
            .filter(|v| self.apply(v.positive()) != v.positive())
            .collect()
    }

    /// Returns `true` if some variable maps to its own negation.
    pub fn has_phase_shift(&self) -> bool {
        (0..self.num_vars()).any(|i| {
            let v = Var::from_index(i);
            self.apply(v.positive()) == v.negative()
        })
    }

    /// Composition: `(p.compose(q)).apply(l) == p.apply(q.apply(l))`.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn compose(&self, other: &LitPermutation) -> LitPermutation {
        assert_eq!(self.images.len(), other.images.len(), "size mismatch");
        LitPermutation { images: other.images.iter().map(|&m| self.images[m as usize]).collect() }
    }

    /// Checks that applying this permutation to every constraint of
    /// `formula` yields a constraint set equal (as normalized multisets) to
    /// the original — i.e. that this is a genuine formula symmetry.
    ///
    /// [`crate::detect_symmetries`] runs every generator of the symmetry
    /// graph through this check (against an index of `formula` it builds
    /// once) and drops the spurious ones.
    pub fn preserves(&self, formula: &PbFormula) -> bool {
        ConstraintIndex::new(formula).preserves(self)
    }
}

/// A formula's clauses, PB constraints and objective in canonical form,
/// indexed by the variables they mention. Built once per formula, it
/// checks a permutation by looking only at the constraints that touch the
/// variables the permutation moves: every other constraint maps to
/// itself.
pub(crate) struct ConstraintIndex {
    num_vars: usize,
    /// Each clause as its sorted, deduplicated literal codes.
    clauses: Multiset<u32>,
    /// Each PB constraint as its sorted `(coefficient, literal code)`
    /// terms, with the bound as one more term on the [`BOUND`] code.
    pbs: Multiset<(u64, u32)>,
    /// The objective's sorted terms, as a multiset of zero or one.
    objective: Multiset<(u64, u32)>,
}

/// Pseudo literal code that carries a PB constraint's bound among its
/// terms; permutations fix it.
const BOUND: u32 = u32::MAX;

impl ConstraintIndex {
    /// Indexes `formula`.
    pub(crate) fn new(formula: &PbFormula) -> Self {
        let num_vars = formula.num_vars();
        let code = |l: Lit| l.code() as u32;
        let mut clauses = Multiset::new(num_vars);
        for c in formula.clauses() {
            clauses.push(c.literals().iter().map(|&l| code(l)), true);
        }
        let mut pbs = Multiset::new(num_vars);
        for c in formula.pb_constraints() {
            let terms = c.terms().iter().map(|&(a, l)| (a, code(l)));
            pbs.push(terms.chain([(c.rhs(), BOUND)]), false);
        }
        let mut objective = Multiset::new(num_vars);
        if let Some(o) = formula.objective() {
            objective.push(o.terms().iter().map(|&(a, l)| (a, code(l))), false);
        }
        ConstraintIndex { num_vars, clauses, pbs, objective }
    }

    /// `true` if `perm` maps the clause multiset, the PB-constraint
    /// multiset and the objective of the indexed formula onto themselves.
    pub(crate) fn preserves(&self, perm: &LitPermutation) -> bool {
        if perm.num_vars() != self.num_vars {
            return false;
        }
        let moved = perm.support();
        self.clauses.preserved(&moved, &perm.images)
            && self.pbs.preserved(&moved, &perm.images)
            && self.objective.preserved(&moved, &perm.images)
    }
}

/// One element of a canonical constraint: a literal code, or a weighted
/// literal code.
trait Term: Copy + Ord + Hash {
    /// The literal code, `None` for the [`BOUND`] pseudo term.
    fn code(self) -> Option<u32>;
    /// The term with its literal mapped through `images`.
    fn mapped(self, images: &[u32]) -> Self;
}

impl Term for u32 {
    fn code(self) -> Option<u32> {
        Some(self)
    }
    fn mapped(self, images: &[u32]) -> Self {
        images[self as usize]
    }
}

impl Term for (u64, u32) {
    fn code(self) -> Option<u32> {
        (self.1 != BOUND).then_some(self.1)
    }
    fn mapped(self, images: &[u32]) -> Self {
        (self.0, self.code().map_or(BOUND, |l| images[l as usize]))
    }
}

/// A multiset of canonical constraints (sorted term lists) with, per
/// variable, the constraints that mention it.
struct Multiset<T> {
    /// The terms of every constraint, back to back.
    terms: Vec<T>,
    /// `ends[i]` — end of constraint `i` in `terms`.
    ends: Vec<usize>,
    /// `touching[v]` — constraints mentioning variable `v`.
    touching: Vec<Vec<u32>>,
    /// Class id of every distinct canonical constraint.
    classes: HashMap<Vec<T>, u32>,
    /// `multiplicity[c]` — constraints of class `c`.
    multiplicity: Vec<u32>,
}

impl<T: Term> Multiset<T> {
    fn new(num_vars: usize) -> Self {
        Multiset {
            terms: Vec::new(),
            ends: Vec::new(),
            touching: vec![Vec::new(); num_vars],
            classes: HashMap::new(),
            multiplicity: Vec::new(),
        }
    }

    fn key(&self, i: usize) -> &[T] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.terms[start..self.ends[i]]
    }

    /// Adds a constraint, sorting its terms (and dropping repeats if
    /// `dedup`).
    fn push(&mut self, terms: impl Iterator<Item = T>, dedup: bool) {
        let id = self.ends.len() as u32;
        let mut key: Vec<T> = terms.collect();
        key.sort_unstable();
        if dedup {
            key.dedup();
        }
        self.terms.extend_from_slice(&key);
        self.ends.push(self.terms.len());
        let mut vars: Vec<u32> = key.iter().filter_map(|t| t.code()).map(|l| l / 2).collect();
        vars.sort_unstable();
        vars.dedup();
        for v in vars {
            self.touching[v as usize].push(id);
        }
        let next = self.multiplicity.len() as u32;
        let class = *self.classes.entry(key).or_insert(next);
        if class == next {
            self.multiplicity.push(0);
        }
        self.multiplicity[class as usize] += 1;
    }

    /// `true` if mapping every constraint through `images` leaves the
    /// multiset unchanged, given that `moved` holds every variable the
    /// mapping moves. Constraints that mention none of them map to
    /// themselves. The ones that do map among themselves, so the multiset
    /// is unchanged exactly when each of their images occurs in it as
    /// often as among the images.
    fn preserved(&self, moved: &[Var], images: &[u32]) -> bool {
        let mut seen = vec![false; self.ends.len()];
        let mut hits = Vec::new();
        let mut image = Vec::new();
        for &i in moved.iter().flat_map(|v| &self.touching[v.index()]) {
            if std::mem::replace(&mut seen[i as usize], true) {
                continue;
            }
            image.clear();
            image.extend(self.key(i as usize).iter().map(|t| t.mapped(images)));
            image.sort_unstable();
            match self.classes.get(image.as_slice()) {
                Some(&class) => hits.push(class),
                None => return false,
            }
        }
        hits.sort_unstable();
        hits.chunk_by(|a, b| a == b)
            .all(|run| self.multiplicity[run[0] as usize] as usize == run.len())
    }
}

impl fmt::Debug for LitPermutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let moved: Vec<String> = (0..self.num_vars())
            .filter_map(|i| {
                let v = Var::from_index(i);
                let img = self.apply(v.positive());
                (img != v.positive()).then(|| format!("{}->{img}", v.positive()))
            })
            .collect();
        write!(f, "LitPermutation[{}]", moved.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_images_validates_negation_consistency() {
        // Swap x0 with x1 but not their negations: inconsistent.
        let bad = vec![2, 1, 0, 3];
        assert!(LitPermutation::from_images(bad).is_none());
        let good = vec![2, 3, 0, 1];
        assert!(LitPermutation::from_images(good).is_some());
    }

    #[test]
    fn phase_shift_detection() {
        // x0 -> ~x0.
        let p = LitPermutation::from_images(vec![1, 0]).expect("valid");
        assert!(p.has_phase_shift());
        assert!(!LitPermutation::identity(1).has_phase_shift());
    }

    #[test]
    fn swap_preserves_symmetric_formula() {
        let mut f = PbFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause([a.positive(), b.positive()]);
        let swap = LitPermutation::from_var_swap(2, a, b);
        assert!(swap.preserves(&f));
        // Asymmetric formula: unit on a only.
        f.add_unit(a.positive());
        assert!(!swap.preserves(&f));
    }

    #[test]
    fn preserves_checks_pb_and_objective() {
        use sbgc_formula::{Objective, PbConstraint};
        let mut f = PbFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        let c = f.new_var();
        f.add_pb(PbConstraint::at_least(
            [(2, a.positive()), (2, b.positive()), (1, c.positive())],
            2,
        ));
        let swap_ab = LitPermutation::from_var_swap(3, a, b);
        let swap_ac = LitPermutation::from_var_swap(3, a, c);
        assert!(swap_ab.preserves(&f), "equal coefficients commute");
        assert!(!swap_ac.preserves(&f), "different coefficients must not");
        f.set_objective(Objective::minimize([(1, a.positive())]));
        assert!(!swap_ab.preserves(&f), "objective pins a");
    }

    #[test]
    fn support_and_compose() {
        let a = Var::from_index(0);
        let b = Var::from_index(1);
        let p = LitPermutation::from_var_swap(3, a, b);
        assert_eq!(p.support(), vec![a, b]);
        assert!(p.compose(&p).is_identity());
    }

    /// The whole-formula multiset comparison, written out independently of
    /// [`ConstraintIndex`].
    fn naive_preserves(p: &LitPermutation, f: &PbFormula) -> bool {
        fn canon_clauses(f: &PbFormula, map: &dyn Fn(Lit) -> Lit) -> Vec<Vec<usize>> {
            let mut all: Vec<Vec<usize>> = f
                .clauses()
                .iter()
                .map(|c| {
                    let mut v: Vec<usize> = c.literals().iter().map(|&l| map(l).code()).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            all.sort();
            all
        }
        fn canon_terms(terms: &[(u64, Lit)], map: &dyn Fn(Lit) -> Lit) -> Vec<(u64, usize)> {
            let mut v: Vec<(u64, usize)> = terms.iter().map(|&(a, l)| (a, map(l).code())).collect();
            v.sort_unstable();
            v
        }
        fn canon_pbs(f: &PbFormula, map: &dyn Fn(Lit) -> Lit) -> Vec<(Vec<(u64, usize)>, u64)> {
            let mut all: Vec<_> =
                f.pb_constraints().iter().map(|c| (canon_terms(c.terms(), map), c.rhs())).collect();
            all.sort();
            all
        }
        let id = |l: Lit| l;
        let mapped = |l: Lit| p.apply(l);
        let objective =
            |map: &dyn Fn(Lit) -> Lit| f.objective().map(|o| canon_terms(o.terms(), map));
        canon_clauses(f, &id) == canon_clauses(f, &mapped)
            && canon_pbs(f, &id) == canon_pbs(f, &mapped)
            && objective(&id) == objective(&mapped)
    }

    /// A random permutation of `n` variables with random phase shifts.
    fn random_perm(n: usize, rng: &mut rand::rngs::StdRng) -> LitPermutation {
        use rand::Rng;
        let mut vars: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            vars.swap(i, rng.gen_range(0..=i));
        }
        let mut images = vec![0u32; 2 * n];
        for (v, &w) in vars.iter().enumerate() {
            let flip = u32::from(rng.gen_bool(0.3));
            images[2 * v] = (2 * w) as u32 ^ flip;
            images[2 * v + 1] = (2 * w + 1) as u32 ^ flip;
        }
        LitPermutation::from_images(images).expect("negation-consistent")
    }

    /// A formula that `sigma` preserves by construction — every clause, PB
    /// row and objective term comes with its whole orbit — with duplicate
    /// clauses, mixed-coefficient PB rows and an objective; with `break_it`
    /// one constraint loses its last orbit member.
    fn symmetric_formula(
        n: usize,
        sigma: &LitPermutation,
        break_it: bool,
        rng: &mut rand::rngs::StdRng,
    ) -> PbFormula {
        use rand::Rng;
        use sbgc_formula::{Objective, PbConstraint};
        let lit = |rng: &mut rand::rngs::StdRng| {
            Var::from_index(rng.gen_range(0..n)).lit(rng.gen_bool(0.5))
        };
        let orbit = |first: Vec<Lit>| {
            let mut out = vec![first];
            loop {
                let next: Vec<Lit> =
                    out.last().expect("non-empty").iter().map(|&l| sigma.apply(l)).collect();
                if next == out[0] {
                    return out;
                }
                out.push(next);
            }
        };
        let mut f = PbFormula::with_vars(n);
        for _ in 0..rng.gen_range(1..6) {
            let k = rng.gen_range(1..=3);
            let mut clauses = orbit((0..k).map(|_| lit(rng)).collect());
            if rng.gen_bool(0.3) {
                clauses.extend(clauses.clone()); // duplicate clauses
            }
            for c in clauses {
                f.add_clause(c);
            }
        }
        for _ in 0..rng.gen_range(0..3) {
            let mut terms: Vec<(i64, Lit)> = Vec::new();
            for v in (0..n).filter(|_| rng.gen_bool(0.5)).collect::<Vec<_>>() {
                terms.push((rng.gen_range(1..4), Var::from_index(v).lit(rng.gen_bool(0.5))));
            }
            let row = PbConstraint::at_least(terms, rng.gen_range(1..6));
            for mapped in orbit(row.terms().iter().map(|&(_, l)| l).collect()) {
                let terms = row.terms().iter().zip(mapped).map(|(&(a, _), l)| (a as i64, l));
                f.add_pb(PbConstraint::at_least(terms, row.rhs() as i64));
            }
        }
        let mut weights: Vec<(u64, Lit)> = Vec::new();
        for _ in 0..rng.gen_range(0..3) {
            let a = rng.gen_range(1..4u64);
            let first = lit(rng);
            weights.extend(orbit(vec![first]).into_iter().map(|o| (a, o[0])));
        }
        if !weights.is_empty() {
            f.set_objective(Objective::minimize(weights));
        }
        if break_it {
            let mut broken = PbFormula::with_vars(n);
            let keep = f.clauses().len().saturating_sub(1);
            for c in &f.clauses()[..keep] {
                broken.add_clause(c.literals().iter().copied());
            }
            for c in f.pb_constraints() {
                broken.add_pb(c.clone());
            }
            if let Some(o) = f.objective() {
                broken.set_objective(o.clone());
            }
            f = broken;
        }
        f
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// One index answers exactly like the naive whole-formula
        /// comparison, for symmetries, near misses (a symmetry composed
        /// with a swap or a phase shift, or checked against a formula that
        /// lost one orbit member) and random permutations.
        #[test]
        fn index_matches_naive_multiset_comparison(n in 1usize..7, seed in proptest::prelude::any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sigma = random_perm(n, &mut rng);
            let f = symmetric_formula(n, &sigma, rng.gen_bool(0.3), &mut rng);
            let index = ConstraintIndex::new(&f);
            let a = Var::from_index(rng.gen_range(0..n));
            let b = Var::from_index(rng.gen_range(0..n));
            let flip = LitPermutation::from_images(
                (0..2 * n as u32).map(|c| if c / 2 == a.index() as u32 { c ^ 1 } else { c }).collect(),
            )
            .expect("phase shift");
            let candidates = [
                sigma.clone(),
                sigma.compose(&LitPermutation::from_var_swap(n, a, b)),
                sigma.compose(&flip),
                flip,
                LitPermutation::identity(n),
                random_perm(n, &mut rng),
            ];
            for p in &candidates {
                proptest::prop_assert_eq!(index.preserves(p), naive_preserves(p, &f), "{:?}", p);
                proptest::prop_assert_eq!(p.preserves(&f), naive_preserves(p, &f));
            }
            proptest::prop_assert!(!index.preserves(&LitPermutation::identity(n + 1)));
        }
    }
}
