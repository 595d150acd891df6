"""Independent reference routes that only the tests compare against.

Each function recomputes something the package computes another way:

* ``apply_monomial``, ``normal_order`` and ``apply_ordered_word`` -- Wick
  reordering of an oscillator word, checked against direct application;
* ``mode_charge`` and ``monomial_charge`` -- the charge grading (a* counts
  +1, a counts -1), checked against the charge blocks that
  ``FockSpace.block_basis`` enumerates;
* ``e_recursive`` -- the raising action on a Verma module by the
  commutation recursion, checked against ``VermaModule.e``;
* ``positive_roots`` and ``pbw_dim`` -- weight-space dimensions from root
  multisets, checked against the Serre-quotient echelon basis;
* ``laurent_terms`` -- the Laurent coefficients of a ``FactoredCoeff``,
  read after ``normalized_by_exact_div`` has cancelled its pair factors;
* ``connection_times`` -- Gamma_q * coeff as a sum of one term per
  connection exponent, checked against coeff times the memoised
  ``Connection.gamma``;
* ``pair_divides`` -- whether z_i - z_j divides a polynomial, by
  substituting z_i = z_j, checked against ``exact_div``;
* ``normalized_by_exact_div`` -- a coefficient reduced by ``pair_divides``
  and ``exact_div``, checked to keep its value; ``FactoredCoeff`` itself
  never cancels a factor;
* ``every_value_residual`` -- a total-complex row with the target action
  applied to every value of a component, inside the row range or not, and
  the sum cut to that range at the end, checked against
  ``TotalComplex.residual``, which acts on the values that land in it only;
* ``wakimoto_component_per_unit`` -- the Wakimoto screening component read,
  contracted and given its charged prefactors one unit monomial at a time,
  through hi - a*min_all(n + 1) + (slots - a)(e + 1) for a unit of energy e,
  checked against ``ScreeningCochains.component``, which reads the summed
  top form once through hi - sum_x min(n + 1) + (slots - a)(E + 1);
* ``cleared_d_stepwise`` and ``clear_pairs_stepwise`` -- Delta times the
  twisted differential, and Delta times a form, built one intermediate form
  per derivative, shift, dz_q wedge and pair factor, checked against the
  one-pass ``cleared_d`` and ``clear_pairs``;
* ``mul_zdiff_stepwise`` -- one pair factor applied term by term, checked
  against ``LaurentForm.mul_zdiff``;
* ``vertex_creation_stepwise`` -- the creation half of the exponential
  field as one ``osc_apply`` per creation mode, checked against
  ``vertex_creation_coeff``, which merges the modes into the monomial keys;
* ``scalar_product_general``, ``scalar_sum_general`` and
  ``scalar_inverse_general`` -- scalar arithmetic on the unreduced product,
  cross-multiplied sum or swapped pair, each reduced by ``_reduce``, checked
  against the monomial-den route of ``ParamScalar``;
* ``poly_add``, ``poly_mul``, ... -- polynomial arithmetic on plain
  ``{exponent: Fraction}`` dicts, checked against ``ParamPolynomial``;
* ``random_specialize`` -- scalars evaluated at random integer points,
  checked against their unreduced numerators and denominators;
* ``ToyModule``, ``ToyVector`` and ``ToyScreening`` -- the rank-one
  screening on the basis F^a v by closed formulas, checked against
  ``ScreeningFamily`` on the sl2 Verma module; ``toy_uniqueness_scan``
  derives its eigenvalue and companion coefficients from the commutation law.
"""

import random
from fractions import Fraction

from screenops.fields import _exp_multiset_coeff
from screenops.fock import _partitions, is_annihilator, monomial_energy, osc_apply
from screenops.forms import (
    FactoredCoeff,
    LaurentForm,
    _insert_sign,
    _value_is_zero,
    clear_pairs,
    cleared_d,
    contraction_cochain,
    koszul_value,
)
from screenops.kacmoody import VermaVector
from screenops.scalars import ParameterContext, ParamScalar, PoleError
from screenops.verma_screenings import ScreeningFamily


# -- oscillator words -----------------------------------------------------------------


def mode_charge(mode):
    return {"a": -1, "as": 1}.get(mode[0], 0)


def monomial_charge(mon):
    return sum(mode_charge(m) for m in mon)


def apply_monomial(modes, vec):
    """Apply an operator word right-to-left (the rightmost mode acts first)."""
    for mode in reversed(modes):
        vec = osc_apply(mode, vec)
    return vec


def normal_order(spec, mon):
    """Normal-order an oscillator word.

    Returns ``(ordered, expansion, ledger)`` where ``ordered`` is the word
    with every annihilation operator moved to the right (the normal-ordered
    monomial itself), ``expansion`` maps ordered words to scalars so that the
    original operator product equals ``sum(expansion[w] * w)``, and
    ``ledger`` records every extracted pairing ``{x y}`` with its value.
    """
    mon = tuple(mon)
    ledger = {}
    expansion = {}

    def reorder(word, coeff):
        for i in range(len(word) - 1):
            x, y = word[i], word[i + 1]
            if is_annihilator(x) and not is_annihilator(y):
                c = spec.bracket(x, y)
                swapped = word[:i] + (y, x) + word[i + 2 :]
                reorder(swapped, coeff)
                if not c.is_zero():
                    key = (x, y)
                    ledger[key] = ledger.get(key, spec.ctx.zero()) + c
                    reorder(word[:i] + word[i + 2 :], coeff * c)
                return
        key = _canonical_word(word)
        expansion[key] = expansion.get(key, spec.ctx.zero()) + coeff

    reorder(mon, spec.ctx.one())
    ordered = _canonical_word(
        tuple(m for m in mon if not is_annihilator(m))
        + tuple(m for m in mon if is_annihilator(m))
    )
    expansion = {w: c for w, c in expansion.items() if not c.is_zero()}
    return ordered, expansion, ledger


def _canonical_word(word):
    # Elements on the same side of the annihilation split commute, so sort
    # each side.
    left = sorted(m for m in word if not is_annihilator(m))
    right = sorted(m for m in word if is_annihilator(m))
    return tuple(left) + tuple(right)


def apply_ordered_word(word, vec):
    """Apply a normal-ordered word: annihilation part first, then creation."""
    for mode in (m for m in reversed(word) if is_annihilator(m)):
        vec = osc_apply(mode, vec)
        if vec.is_zero():
            return vec
    for mode in (m for m in reversed(word) if not is_annihilator(m)):
        vec = osc_apply(mode, vec)
    return vec


# -- Verma modules ----------------------------------------------------------------------


def e_recursive(M, i, vec):
    """E_i by recursion: E_i(theta_j u v) = theta_j E_i(u v) + delta_ij H_i(u v)."""
    out = M.zero()
    for w, c in vec.terms.items():
        out = out + c * _e_word(M, i, w)
    return out


def _e_word(M, i, w):
    if not w:
        return M.zero()
    j, rest = w[0], w[1:]
    tail = VermaVector(M, {rest: M.ctx.one()})
    out = M.f(j, _e_word(M, i, rest))
    if j == i:
        out = out + M.h(i, tail)
    return out


# -- root combinatorics -----------------------------------------------------------------


def positive_roots(cd, height_max=12):
    """Real positive roots up to the height cap, via the reflection orbit.

    For finite type this is the full positive system once height_max is
    at least the highest root's height.
    """
    r = cd.rank
    simple = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    seen = set(simple)
    queue = list(simple)
    while queue:
        beta = queue.pop()
        for i in range(r):
            pairing = sum(cd.matrix[i][j] * beta[j] for j in range(r))
            new = list(beta)
            new[i] -= pairing
            new = tuple(new)
            ht = sum(abs(x) for x in new)
            if ht == 0 or ht > height_max:
                continue
            if new not in seen:
                seen.add(new)
                queue.append(new)
    return sorted(b for b in seen if all(x >= 0 for x in b))


def pbw_dim(cd, depth):
    """Multisets of positive roots with given multidegree sum."""
    roots = positive_roots(cd, height_max=max(2 * sum(depth), 2))
    roots = [b for b in roots if all(x <= y for x, y in zip(b, depth))]

    def count(idx, rem):
        if all(x == 0 for x in rem):
            return 1
        if idx == len(roots):
            return 0
        beta = roots[idx]
        total = 0
        cur = rem
        while True:
            total += count(idx + 1, cur)
            if all(x >= y for x, y in zip(cur, beta)) and any(beta):
                cur = tuple(x - y for x, y in zip(cur, beta))
            else:
                break
        return total

    return count(0, depth)


# -- Laurent coefficients ---------------------------------------------------------------


def laurent_terms(coeff):
    """z-exponent tuple -> Fraction of a FactoredCoeff with a pure Laurent value.

    The coefficient is reduced first, since a Laurent value may still carry
    pair factors that its numerator cancels.
    """
    coeff = normalized_by_exact_div(coeff)
    if coeff.pairs:
        raise ValueError("pair factors remain in the denominator")
    nbase = coeff.space._zoff
    out = {}
    for exp, val in coeff.num.terms.items():
        if any(exp[:nbase]):
            raise ValueError("base parameters present in the numerator")
        z = tuple(exp[nbase + q] - coeff.zexp[q] for q in range(coeff.space.nvars))
        out[z] = out.get(z, Fraction(0)) + val
    return {k: v for k, v in out.items() if v}


def connection_times(conn, coeff, q):
    """Gamma_q * coeff with Gamma_q = kappa_q/z_q + sum_j kappa_qj/(z_q - z_j), term by term."""
    total = FactoredCoeff.zero(coeff.space)
    kq = conn.kappa[q]
    if not _value_is_zero(kq):
        total = total + coeff.mul_base(kq).shift_z(q, -1)
    for j in range(coeff.space.nvars):
        if j == q:
            continue
        c = conn.pair(q, j)
        if c is None or _value_is_zero(c):
            continue
        total = total + coeff.mul_base(c).mul_pair_inverse(q, j)
    return total


def pair_divides(space, key, poly):
    """Whether (z_i - z_j) divides poly, for key = (i, j) with i < j.

    Substitutes z_i = z_j and tests the image for zero.  The divisor is
    monic and linear in z_i, so the image is the remainder of the division
    and vanishes iff the division is exact.  The rational view ``terms`` is
    read, with exponent tuples, so the oracle is independent of the packed
    kernel.  Terms are grouped by image exponent first: a group of one term
    cannot cancel, and each other group is summed.
    """
    vi, vj = space.zvar(key[0]), space.zvar(key[1])
    groups = {}
    for exp, c in poly.terms.items():
        k = exp[vi]
        if k:
            exp = exp[:vi] + (0,) + exp[vi + 1 : vj] + (exp[vj] + k,) + exp[vj + 1 :]
        groups.setdefault(exp, []).append(c)
    if any(len(cs) == 1 for cs in groups.values()):
        return False
    return not any(sum(cs) for cs in groups.values())


def normalized_by_exact_div(coeff):
    """coeff reduced in full: every z_q power of num moved into zexp, and each
    pair divided out by ``exact_div`` while ``pair_divides`` passes."""
    space, num = coeff.space, coeff.num
    if num.is_zero():
        return FactoredCoeff.zero(space)
    zexp, pairs = list(coeff.zexp), dict(coeff.pairs)
    for q in range(space.nvars):
        var = space.zvar(q)
        d = min(exp[var] for exp in num.terms)
        num = num.shift_var(var, -d)
        zexp[q] -= d
    for key in pairs:
        while pairs[key] and pair_divides(space, key, num):
            num = num.exact_div(space.pair_poly(*key))
            pairs[key] -= 1
    return FactoredCoeff(space, num, zexp, pairs)


# -- total-complex rows -------------------------------------------------------------


def every_value_residual(fam, xs, u):
    """The row of ``fam`` at xs (at least one element) on u, acting on every value.

    d' is exact on the family window moved by |Delta|, d'' on it moved by
    |Delta| - 1; the row keeps the degrees where both parts are exact."""

    def action(x, ys):
        comp = fam.component(ys, u)
        moved = {key: fam.act_target(x, v) for key, v in comp.terms.items()}
        return LaurentForm(comp.nvars, moved) - fam.component(ys, fam.act_source(x, u))

    dprime = koszul_value(lambda ys: fam.component(ys, u), xs, action, fam.bracket)
    out = clear_pairs(dprime, fam.connection)
    shift = len(fam.connection.active_pairs())
    lo, hi = fam.window[0] + shift, fam.window[1] + shift
    if len(xs) <= fam.depth:
        second = cleared_d(fam.component(xs, u), fam.connection)
        out = out - second if len(xs) % 2 else out + second
        hi -= 1
    return LaurentForm(out.nvars, {k: v for k, v in out.terms.items() if lo <= sum(k[1]) <= hi})


def wakimoto_component_per_unit(fam, xs, u):
    """The depth-a component of the Wakimoto family ``fam`` on u, one unit at a time.

    Each unit monomial of energy e is read through hi - a*shift +
    (slots - a)(e + 1), shift the least n + 1 over the modes e_n of every
    field, contracted on its own, and given -beta(z_q) on each slot that keeps
    dz with the modes a_m, m <= e, that can still land at or below the cap hi.
    """
    fields = [fam._witt(x) for x in xs]
    a = len(fields)
    scale = Fraction(-1) ** (fam.slots - a) * fam._image_scale ** a
    hi = fam.window[1]
    shift = min((n + 1 for f in fields for n in f.coeffs), default=0)
    terms = {}
    for mon, c in (scale * u).terms.items():
        bound = monomial_energy(mon)
        omega = fam.unit_top(mon, hi - a * shift + (fam.slots - a) * (bound + 1))
        for (subset, exps), value in contraction_cochain(omega, fields).terms.items():
            partial = [(exps, value, sum(exps))]
            for i, q in enumerate(subset):
                later = (len(subset) - 1 - i) * (bound + 1)
                partial = [
                    (e[:q] + (e[q] - m - 1,) + e[q + 1:], moved, d - m - 1)
                    for e, w, d in partial
                    for m in range(d - 1 - hi - later, bound + 1)
                    for moved in (osc_apply(("a", m), w),)
                    if not moved.is_zero()
                ]
            for e, w, d in partial:
                if d <= hi:
                    key = (subset, e)
                    terms[key] = terms[key] + c * w if key in terms else c * w
    return LaurentForm(fam.slots, terms)


def mul_zdiff_stepwise(form, i, j):
    """form times (z_i - z_j): each term moves up one degree."""
    out = {}
    for (subset, exps), value in form.terms.items():
        for var, sign in ((i, 1), (j, -1)):
            e = list(exps)
            e[var] += 1
            key = (subset, tuple(e))
            add = sign * value
            out[key] = out[key] + add if key in out else add
    return LaurentForm(form.nvars, out)


def _wedge_dzq(form, q):
    out = {}
    for (subset, exps), value in form.terms.items():
        if q in subset:
            continue
        key = (tuple(sorted(subset + (q,))), exps)
        add = _insert_sign(subset, q) * value
        out[key] = out[key] + add if key in out else add
    if not out:
        return None
    return LaurentForm(form.nvars, out)


def _apply_delta(form, pairs):
    for (i, j) in pairs:
        form = mul_zdiff_stepwise(form, i, j)
    return form


def clear_pairs_stepwise(form, conn):
    """Delta * form, one pair factor at a time."""
    return _apply_delta(form, conn.active_pairs())


def cleared_d_stepwise(form, conn):
    """Delta * (twisted d), one intermediate form per derivative, shift, wedge and pair factor.

    Every piece lowers the degree by one and each pair factor raises it by
    one, so every term moves by |Delta| - 1.
    """
    nvars = form.nvars
    active = conn.active_pairs()
    total = LaurentForm(nvars, {})
    for q in range(nvars):
        # Delta * (d/dz_q + kappa_q/z_q) f wedge dz_q
        base = form.deriv(q)
        kq = conn.kappa[q]
        if not _value_is_zero(kq):
            base = base + kq * form.shift(q, -1)
        piece = _wedge_dzq(base, q)
        if piece is not None:
            total = total + _apply_delta(piece, active)
        # pair terms: kappa_qj * Delta/(z_q - z_j) * f wedge dz_q
        for (i, j) in active:
            if q not in (i, j):
                continue
            sign = 1 if q == i else -1  # Delta carries (z_i - z_j) with i < j
            part = _wedge_dzq((sign * conn.pair(i, j)) * form, q)
            if part is not None:
                total = total + _apply_delta(part, [p for p in active if p != (i, j)])
    return total


# -- Fock vectors --------------------------------------------------------------------


def vertex_creation_stepwise(mu, k, vec):
    """Creation half of the exponential field at z^+k: one osc_apply per creation mode."""
    space = vec.space
    mu = space.ctx.scalar(mu)
    out = space.zero()
    if k < 0 or vec.is_zero():
        return out
    for part in _partitions(k):
        raised = vec
        for m in part:
            raised = osc_apply(("b", -m), raised)
        out = out + _exp_multiset_coeff(mu ** len(part), part, annihilate=False) * raised
    return out


# -- scalars through the general reduction --------------------------------------------


def scalar_product_general(x, y):
    """x * y as the unreduced pair (num_x num_y, den_x den_y), reduced by ``_reduce``."""
    return ParamScalar(x.num * y.num, x.den * y.den)


def scalar_sum_general(x, y, sign=1):
    """x + sign * y as the cross-multiplied pair, reduced by ``_reduce``."""
    left, right = x.num * y.den, y.num * x.den
    return ParamScalar(left + right if sign > 0 else left - right, x.den * y.den)


def scalar_inverse_general(x):
    """1 / x as the swapped pair, reduced by ``_reduce``."""
    return ParamScalar(x.den, x.num)


# -- polynomials as {exponent: Fraction} ---------------------------------------------


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def poly_add(f, g, sign=1):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return _nonzero(out)


def poly_sub(f, g):
    return poly_add(f, g, -1)


def poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _nonzero(out)


def poly_scale(f, q):
    return _nonzero({e: c * q for e, c in f.items()})


def poly_derivative(f, var):
    out = {}
    for e, c in f.items():
        if e[var]:
            e2 = e[:var] + (e[var] - 1,) + e[var + 1 :]
            out[e2] = out.get(e2, Fraction(0)) + c * e[var]
    return _nonzero(out)


def poly_univariate_in(f, var):
    """{degree in var: coefficient dict with var's exponent set to 0}."""
    out = {}
    for e, c in f.items():
        out.setdefault(e[var], {})[e[:var] + (0,) + e[var + 1 :]] = c
    return out


# -- specialization -------------------------------------------------------------------

_SPECIALIZE_BOUND = 10**6
_MAX_REDRAWS = 64


def random_specialize(scalars, context, seed=0):
    """Draw integer parameter values avoiding every denominator's zero set.

    Returns (assignment, evaluated Fractions) for the given scalars.  The
    Schwartz-Zippel bound makes a false zero at random integer points in
    [-_SPECIALIZE_BOUND, _SPECIALIZE_BOUND] overwhelmingly unlikely; pole
    hits redraw up to _MAX_REDRAWS times before raising PoleError.
    """
    scalars = list(scalars)
    rng = random.Random(seed)
    for _ in range(_MAX_REDRAWS):
        assignment = {
            name: rng.randint(-_SPECIALIZE_BOUND, _SPECIALIZE_BOUND)
            for name in context.names
        }
        try:
            values = [s.evaluate(assignment) for s in scalars]
        except PoleError:
            continue
        return assignment, values
    raise PoleError("could not avoid poles after %d redraws" % _MAX_REDRAWS)


# -- rank-one toy screening ------------------------------------------------------------


class ToyVector:
    """Finitely supported map exponent -> scalar over a fixed module."""

    __slots__ = ("module", "comps")

    def __init__(self, module, comps: dict):
        self.module = module
        self.comps = {a: c for a, c in comps.items() if not _value_is_zero(c)}

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        return (
            isinstance(other, ToyVector)
            and self.module is other.module
            and (self - other).is_zero()
        )

    __hash__ = None

    def __add__(self, other: "ToyVector") -> "ToyVector":
        out = dict(self.comps)
        for a, c in other.comps.items():
            out[a] = out.get(a, 0) + c
        return ToyVector(self.module, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return ToyVector(self.module, {a: scalar * c for a, c in self.comps.items()})

    def __str__(self):
        if not self.comps:
            return "0"
        return " + ".join("(%s)*F^%d v" % (c, a) for a, c in sorted(self.comps.items()))

    __repr__ = __str__


class ToyModule:
    """Rank-one highest-weight module: H v = mu v, E F^a v = a(mu - a + 1) F^(a-1) v."""

    def __init__(self, ctx, mu):
        self.ctx = ctx
        self.mu = ctx.scalar(mu)

    def zero(self) -> ToyVector:
        return ToyVector(self, {})

    def e(self, vec: ToyVector) -> ToyVector:
        out = {}
        for a, c in vec.comps.items():
            if a >= 1:
                out[a - 1] = c * (a * (self.mu - (a - 1)))
        return ToyVector(self, out)

    def h(self, vec: ToyVector) -> ToyVector:
        return ToyVector(self, {a: c * (self.mu - 2 * a) for a, c in vec.comps.items()})

    def f(self, vec: ToyVector) -> ToyVector:
        return ToyVector(self, {a + 1: c for a, c in vec.comps.items()})

    def act(self, tree, vec: ToyVector) -> ToyVector:
        kind = tree[0]
        if kind == "br":
            _, x, y = tree
            return self.act(x, self.act(y, vec)) - self.act(y, self.act(x, vec))
        if kind == "e":
            return self.e(vec)
        if kind == "h":
            return self.h(vec)
        return self.f(vec)


class ToyScreening(ScreeningFamily):
    """Mode operators F^a v -> F^(a+n) v from weight -lam-1 to weight lam-1.

    Only the modes and the generator companions are written out; the bracket
    induction and the commutation law are the package's own.
    """

    def __init__(self, ctx, lam):
        self.kappa = ctx.scalar(lam)
        self.target = ToyModule(ctx, self.kappa - 1)
        self.source = ToyModule(ctx, -self.kappa - 1)

    def apply(self, n: int, vec: ToyVector) -> ToyVector:
        return ToyVector(self.target, {a + n: c for a, c in vec.comps.items()})

    def _generator_companion(self, tree, n: int, vec: ToyVector) -> ToyVector:
        kind = tree[0]
        if kind == "f":
            return self.target.zero()
        if kind == "h":
            return 2 * self.apply(n, vec)
        # companion of the raising generator: (n + 2a) F^(a+n-1)
        out = {}
        for a, c in vec.comps.items():
            if a + n >= 1:
                out[a + n - 1] = c * (n + 2 * a)
        return ToyVector(self.target, out)


def toy_uniqueness_scan() -> dict:
    """Solve [E, V_n] = (alpha - n) V_n(E) for the mode family F^a -> F^(a+n).

    Works symbolically: the commutator coefficient on F^a v is compared with
    (alpha - n)(n + beta0 + beta1*a), identically in the exponent a and the
    mode n.  The coefficient constraints force beta1 = 2, beta0 = alpha - lam,
    2*alpha = lam - lam_src and alpha(alpha - lam) = 0.  The alpha = 0 root
    collapses to lam_src = lam (excluded when the two weights differ); the
    surviving branch is alpha = lam, lam_src = -lam, beta(a) = 2a.  The
    result reports both branches and keeps the constraints, keyed by their
    (a, n) exponents, under ``"constraints"``.
    """
    ctx = ParameterContext(("lam", "lam_src", "alpha", "beta0", "beta1", "a", "n"))
    lam, lam_src, alpha, beta0, beta1, a, n = (ctx.param(s) for s in ctx.names)

    # commutator coefficient of [E, V_n] on F^a v, computed from the module
    # formulas: E F^b (weight w - 1 vacuum) = b(w - b) F^(b-1)
    lhs = (a + n) * (lam - (a + n)) - a * (lam_src - a)
    rhs = (alpha - n) * (n + beta0 + beta1 * a)
    defect = lhs - rhs

    constraints = _collect_constraints(defect, ("a", "n"))

    def check_branch(subs: dict) -> bool:
        reduced = []
        for poly in constraints.values():
            value = poly.substitute(subs, target=ctx)
            reduced.append(value.is_zero())
        return all(reduced)

    screening = {"alpha": lam, "lam_src": -1 * lam, "beta0": ctx.zero(), "beta1": ctx.scalar(2)}
    degenerate = {"alpha": ctx.zero(), "lam_src": lam, "beta0": -1 * lam, "beta1": ctx.scalar(2)}
    return {
        "screening_branch": {
            "alpha": "lam",
            "lam_src": "-lam",
            "beta": "2a",
            "valid": check_branch(screening),
        },
        "degenerate_branch": {
            "alpha": "0",
            "lam_src": "lam",
            "excluded": "source weight equals target weight",
            "valid": check_branch(degenerate),
        },
        "constraints": constraints,
    }


def _collect_constraints(scalar, names):
    """Coefficients of a polynomial scalar w.r.t. the given parameters."""
    if not scalar.den.is_constant():
        raise ValueError("constraint collection needs a polynomial scalar")
    ctx = scalar.context
    idx = [ctx.names.index(nm) for nm in names]
    out: dict = {}
    for exp, val in scalar.num.terms.items():
        key = tuple(exp[i] for i in idx)
        mono = ctx.one()
        for name, p in zip(ctx.names, exp):
            if p and name not in names:
                mono = mono * ctx.param(name) ** p
        out[key] = out.get(key, ctx.zero()) + val * mono
    den = scalar.den.constant_value()
    return {k: v * (1 / den) for k, v in out.items() if not v.is_zero()}
