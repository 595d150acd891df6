"""Exact Fock modules over a rank-one oscillator algebra.

Three layers:

* an oscillator alphabet: even boson modes ``b_n`` with
  ``[b_n, b_m] = 2 n delta_{n+m,0}``, optionally extended by a charged
  first-order pair ``a_n`` / ``a*_n`` (weight-one and weight-zero partners)
  with ``[a_n, a*_m] = -delta_{n+m,0}``;

* Fock modules: a vacuum vector killed by every annihilation operator
  (``b_n`` for n > 0, ``a_n`` for n >= 0, ``a*_n`` for n > 0) on which the
  boson zero mode acts by ``2 alpha`` for a vacuum label ``alpha``;
  vectors are finite combinations of creation monomials and are bigraded by
  energy (total mode depth) and charge (number of ``a*`` minus number of
  ``a`` factors), with finite-dimensional bigraded blocks;

* mode operators: linear maps with a fixed (energy, charge, label) degree
  shift, applied exactly -- annihilation bounded by the source vector and
  creation bounded by the target block make every mode sum finite -- with
  memoized images of source monomials and exact block matrices read from them.

All coefficients live in the exact scalar field of
:mod:`screenops.scalars`, so every identity test below is a literal
zero-test, never a tolerance comparison.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .scalars import Combination, ParamScalar, ParameterContext, RationalLike

Mode = tuple[str, int]

_FAMILIES = ("b", "a", "as")
# the family of the creation mode an annihilation mode pairs with
_PARTNER = {"b": "b", "a": "as", "as": "a"}


def _check_mode(mode: Mode) -> Mode:
    fam, n = mode
    if fam not in _FAMILIES:
        raise ValueError("unknown oscillator family %r" % (fam,))
    return mode


def is_annihilator(mode: Mode) -> bool:
    """Right-movers under normal ordering: b_n (n>0), a_n (n>=0), a*_n (n>0).

    The boson zero mode b_0 also sorts to the right: it acts as a scalar on
    every Fock vector.  A plain predicate: ``osc_apply`` and
    ``OscSpec.bracket`` validate the family.
    """
    fam, n = mode
    return n > 0 if fam == "as" else n >= 0


def mode_energy(mode: Mode) -> int:
    return -mode[1]


def monomial_energy(mon: Sequence[Mode]) -> int:
    return sum(mode_energy(m) for m in mon)


def _sorted_monomial(modes: Iterable[Mode]) -> tuple[Mode, ...]:
    # Creation operators all commute pairwise, so any fixed order is a
    # canonical form; sort by family then depth.
    return tuple(sorted(modes))


class OscSpec:
    """Oscillator alphabet: bracket table and annihilation split.

    ``pairing`` is the symmetric-form value entering ``[b_n, b_m]``, fixed
    at the rank-one normalization 2.  The Wick seeds of
    :mod:`screenops.fields` (``_BASE_CONTRACTIONS``, ``_vertex_contraction``),
    ``stress_tensor`` and ``virasoro.virasoro_apply`` assume this value.
    ``has_pair`` switches the charged a/a* pair on (current algebras) or
    off (pure boson).
    """

    __slots__ = ("ctx", "pairing", "has_pair", "_contractions")

    def __init__(self, ctx: ParameterContext, has_pair: bool = False):
        self.ctx = ctx
        self.pairing = ctx.scalar(2)
        self.has_pair = has_pair
        self._contractions: dict = {}

    def __eq__(self, other):
        return (
            isinstance(other, OscSpec)
            and self.ctx == other.ctx
            and self.has_pair == other.has_pair
        )

    def __hash__(self):
        return hash((self.ctx, self.has_pair))

    def __repr__(self):
        return "OscSpec(has_pair=%r)" % (self.has_pair,)

    # -- bracket table ------------------------------------------------------

    def bracket(self, x: Mode, y: Mode) -> ParamScalar:
        """[x, y] when the bracket is central (a scalar); zero otherwise.

        Table: [b_n, b_m] = pairing*n*d_{n+m,0}; [a_n, a*_m] = -d_{n+m,0}.
        All brackets of this alphabet are central.
        """
        (fx, nx), (fy, ny) = _check_mode(x), _check_mode(y)
        zero = self.ctx.zero()
        if fx == "b" and fy == "b":
            return self.pairing * nx if nx + ny == 0 else zero
        if fx == "a" and fy == "as":
            return self.ctx.scalar(-1) if nx + ny == 0 else zero
        if fx == "as" and fy == "a":
            return self.ctx.scalar(1) if nx + ny == 0 else zero
        return zero

    def contraction(self, mode: Mode) -> tuple[Mode, RationalLike]:
        """``(partner, value)`` for an annihilation mode other than b_0: the
        creation mode it removes and the exact rational ``bracket(mode,
        partner)``, an int when integral (every value at pairing 2); memoized."""
        got = self._contractions.get(mode)
        if got is None:
            fam, n = _check_mode(mode)
            partner = _PARTNER[fam], -n
            q = self.bracket(mode, partner).as_fraction()
            value = q.numerator if q.denominator == 1 else q
            got = self._contractions[mode] = (partner, value)
        return got


class FockSpace:
    """Fock module with vacuum label ``alpha`` (boson zero mode pairing*alpha)."""

    __slots__ = ("spec", "alpha", "_block_cache")

    def __init__(self, spec: OscSpec, alpha):
        self.spec = spec
        self.alpha = spec.ctx.scalar(alpha)
        self._block_cache: dict = {}

    @property
    def ctx(self) -> ParameterContext:
        return self.spec.ctx

    def __eq__(self, other):
        return (
            isinstance(other, FockSpace)
            and self.spec == other.spec
            and self.alpha == other.alpha
        )

    def __hash__(self):
        return hash((self.spec, self.alpha))

    def __repr__(self):
        return "FockSpace(alpha=%s)" % (self.alpha,)

    # -- vectors --------------------------------------------------------------

    def zero(self) -> "FockVector":
        return FockVector(self, {})

    def vacuum(self) -> "FockVector":
        return FockVector(self, {(): self.ctx.one()})

    def shifted(self, beta) -> "FockSpace":
        """Same oscillator alphabet, vacuum label translated by beta."""
        return FockSpace(self.spec, self.alpha + self.ctx.scalar(beta))

    # -- bigraded blocks --------------------------------------------------------

    def block_basis(self, energy: int, charge: int = 0) -> tuple[tuple[Mode, ...], ...]:
        key = (energy, charge)
        cached = self._block_cache.get(key)
        if cached is None:
            cached = tuple(sorted(self._enumerate_block(energy, charge)))
            self._block_cache[key] = cached
        return cached

    def _enumerate_block(self, energy: int, charge: int):
        if energy < 0:
            return
        if not self.spec.has_pair:
            if charge != 0:
                return
            for part in _partitions(energy):
                yield _sorted_monomial(("b", -n) for n in part)
            return
        for e_b in range(energy + 1):
            for e_a in range(energy - e_b + 1):
                e_as = energy - e_b - e_a
                for bpart in _partitions(e_b):
                    for apart in _partitions(e_a):
                        for aspart in _partitions(e_as):
                            n_as0 = charge - len(aspart) + len(apart)
                            if n_as0 < 0:
                                continue
                            modes = [("b", -n) for n in bpart]
                            modes += [("a", -n) for n in apart]
                            modes += [("as", -n) for n in aspart]
                            modes += [("as", 0)] * n_as0
                            yield _sorted_monomial(modes)


def _partitions(total: int, largest: int | None = None):
    """Partitions of ``total`` into parts >= 1, as weakly decreasing tuples."""
    if total == 0:
        yield ()
        return
    if largest is None or largest > total:
        largest = total
    for first in range(largest, 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


class FockVector(Combination):
    """Finite combination of creation monomials with exact coefficients.

    ``terms`` maps a sorted mode tuple to a nonzero scalar; the linear
    structure is `Combination`'s, over ``space``.
    """

    __slots__ = ("space",)

    def __init__(self, space: FockSpace, terms: dict):
        self.space = space
        self.terms = terms

    def _like(self, terms: dict) -> "FockVector":
        return FockVector(self.space, terms)

    # bound in the class body: perfbench/tracer.py wraps it via __dict__
    __add__ = Combination.__add__

    def __rmul__(self, scalar) -> "FockVector":
        c = scalar if isinstance(scalar, (int, Fraction)) else self.space.ctx.scalar(scalar)
        if not c:
            return self.space.zero()
        # vectors are never changed in place, so scaling by 1 may share self
        if c == 1:
            return self
        if c == -1:
            return -self
        return FockVector(self.space, {m: v * c for m, v in self.terms.items()})

    # -- grading ---------------------------------------------------------------

    def energy_bound(self) -> int:
        """Largest monomial energy present (0 for the zero vector)."""
        return max((monomial_energy(m) for m in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mon in sorted(self.terms):
            c = self.terms[mon]
            if mon:
                body = " ".join(_mode_name(m) for m in mon)
                bits.append("(%s)*%s v" % (c, body))
            else:
                bits.append("(%s) v" % (c,))
        return " + ".join(bits)


def _mode_name(mode: Mode) -> str:
    fam, n = mode
    label = {"b": "b", "a": "a", "as": "a*"}[fam]
    return "%s(%d)" % (label, n)


# -- oscillator action ----------------------------------------------------------


def osc_apply(mode: Mode, vec: FockVector) -> FockVector:
    """Apply one oscillator mode exactly.

    Creation modes multiply each monomial; annihilation modes commute through
    to the vacuum, which reduces to pairing each occurrence of the conjugate
    creation mode with the bracket value (``OscSpec.contraction``); b_0 acts
    by pairing*alpha.
    """
    fam, n = _check_mode(mode)
    space = vec.space
    spec = space.spec
    if fam in ("a", "as") and not spec.has_pair:
        raise ValueError("this oscillator alphabet has no charged pair")
    if fam == "b" and n == 0:
        return (spec.pairing * space.alpha) * vec
    # adding or removing one mode is injective on monomials: no keys merge
    if not is_annihilator(mode):
        return FockVector(
            space, {_sorted_monomial(mon + (mode,)): c for mon, c in vec.terms.items()}
        )
    partner, value = spec.contraction(mode)
    out = {}
    for mon, c in vec.terms.items():
        count = mon.count(partner)
        if not count:
            continue
        reduced = list(mon)
        reduced.remove(partner)
        out[tuple(reduced)] = (count * value) * c
    return FockVector(space, out)


# -- mode operators -----------------------------------------------------------------


class ModeOperator:
    """Linear map between Fock spaces with a fixed bigraded degree shift.

    Wraps a function on vectors and memoizes the image of each source
    monomial, so ``fn`` must be linear: ``apply`` sums c * image over the
    terms of a vector, and ``matrix`` reads the same images into the exact
    block matrix from a source block to the shifted target block.
    """

    __slots__ = ("fn", "source", "target", "energy_shift", "charge_shift", "_images")

    def __init__(
        self,
        fn: Callable[[FockVector], FockVector],
        source: FockSpace,
        target: FockSpace,
        energy_shift: int,
        charge_shift: int = 0,
    ):
        self.fn = fn
        self.source = source
        self.target = target
        self.energy_shift = energy_shift
        self.charge_shift = charge_shift
        self._images: dict = {}

    def _image(self, mon: tuple[Mode, ...]) -> FockVector:
        """Memoized image of one source monomial."""
        got = self._images.get(mon)
        if got is None:
            unit = FockVector(self.source, {mon: self.source.ctx.one()})
            got = self._images[mon] = self.fn(unit)
        return got

    def apply(self, vec: FockVector) -> FockVector:
        """Sum of c * image(mon) over the terms c mon of vec, added into one
        dict (c = 1 adds the image's values as they are); zeros drop at the end."""
        if vec.space is not self.source and vec.space != self.source:
            raise ValueError("vector lives over %r, operator expects %r" % (vec.space, self.source))
        acc: dict = {}
        for mon, c in vec.terms.items():
            one = c == 1
            for m, v in self._image(mon).terms.items():
                add = v if one else v * c
                acc[m] = acc[m] + add if m in acc else add
        return FockVector(self.target, {m: v for m, v in acc.items() if not v.is_zero()})

    # -- exact block matrices ----------------------------------------------------

    def matrix(self, energy: int, charge: int = 0):
        """Exact matrix on the (energy, charge) source block.

        Returns ``(source_basis, target_basis, rows)`` where ``rows[i][j]``
        is the coefficient of target monomial i in the image of source
        monomial j.
        """
        src = self.source.block_basis(energy, charge)
        tgt = self.target.block_basis(energy + self.energy_shift, charge + self.charge_shift)
        index = {mon: i for i, mon in enumerate(tgt)}
        zero = self.source.ctx.zero()
        rows = [[zero] * len(src) for _ in tgt]
        for j, mon in enumerate(src):
            for m, c in self._image(mon).terms.items():
                i = index.get(m)
                if i is None:
                    raise ValueError(
                        "image of %r leaves the shifted block: %r" % (mon, m)
                    )
                rows[i][j] = c
        return src, tgt, rows


def commutator_blocks(a: ModeOperator, b: ModeOperator, energy: int, charge: int = 0):
    """Exact matrix of [a, b] on the (energy, charge) block of the common source.

    Builds a fresh operator on each call, composing the memoized
    ``a.apply`` and ``b.apply``, and returns its
    ``(source_basis, target_basis, rows)`` as ``ModeOperator.matrix``.
    """
    if a.source != b.source or a.target != b.target or a.source != a.target:
        raise ValueError("commutator needs endomorphisms of one space")
    return ModeOperator(
        lambda v: a.apply(b.apply(v)) - b.apply(a.apply(v)),
        a.source,
        a.target,
        a.energy_shift + b.energy_shift,
        a.charge_shift + b.charge_shift,
    ).matrix(energy, charge)
