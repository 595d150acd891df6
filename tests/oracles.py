"""Independent reference routes that only the tests compare against.

Each function recomputes something the package computes another way:

* ``apply_monomial``, ``normal_order`` and ``apply_ordered_word`` -- Wick
  reordering of an oscillator word, checked against direct application;
* ``e_recursive`` -- the raising action on a Verma module by the
  commutation recursion, checked against ``VermaModule.e``;
* ``positive_roots`` and ``pbw_dim`` -- weight-space dimensions from root
  multisets, checked against the Serre-quotient echelon basis;
* ``laurent_terms`` -- the Laurent coefficients of a ``FactoredCoeff``;
* ``poly_add``, ``poly_mul``, ... -- polynomial arithmetic on plain
  ``{exponent: Fraction}`` dicts, checked against ``ParamPolynomial``;
* ``random_specialize`` -- scalars evaluated at random integer points,
  checked against their unreduced numerators and denominators.
"""

import random
from fractions import Fraction

from screenops.fock import is_annihilator, osc_apply
from screenops.kacmoody import VermaVector, _word_depth
from screenops.scalars import PoleError


# -- oscillator words -----------------------------------------------------------------


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
    for part in vec.comps.values():
        for w, c in part.items():
            out = out + c * _e_word(M, i, w)
    return out


def _e_word(M, i, w):
    if not w:
        return M.zero()
    j, rest = w[0], w[1:]
    tail = VermaVector(M, {_word_depth(rest, M.cd.rank): {rest: M.ctx.one()}})
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
    """z-exponent tuple -> Fraction of a FactoredCoeff with a pure Laurent value."""
    if coeff.pairs:
        raise ValueError("pair factors remain in the denominator")
    if not coeff.base_den.is_constant():
        raise ValueError("base-parameter denominator remains")
    c0 = coeff.base_den.constant_value()
    nbase = coeff.space._zoff
    out = {}
    for exp, val in coeff.num.terms.items():
        if any(exp[:nbase]):
            raise ValueError("base parameters present in the numerator")
        z = tuple(exp[nbase + q] - coeff.zexp[q] for q in range(coeff.space.nvars))
        out[z] = out.get(z, Fraction(0)) + val / c0
    return {k: v for k, v in out.items() if v}


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
