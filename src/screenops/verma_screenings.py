"""Mode-indexed intertwining operators between highest-weight modules.

Layers:

* the general construction ``x v -> x F_i^n v`` between a module and its
  reflected-weight partner, with companion maps per Lie-algebra element and
  the mode-wise commutation law ``[X, V_n] = (kappa - n) V_n(X)``;

* multi-variable cochains attached to a reduced reflection word, the total
  complex residuals pairing the Koszul differential with the twisted de Rham
  differential, and the residue of the top component at nonnegative integral
  exponents, a module map whose intertwining defect vanishes.
  ``ReflectionCochains.residue`` applies the slot modes directly; the
  shared reader ``forms.residue_functional`` reads the same coefficient off
  the top component.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .scalars import ParameterContext
from .kacmoody import CartanData, VermaModule, VermaVector, br
from .forms import Connection, LaurentForm, TotalComplex

__all__ = [
    "ScreeningFamily",
    "ReflectionCochains",
]


# ---------------------------------------------------------------------------
# general screening family between a module and its reflected partner


class ScreeningFamily:
    """V_n: x v' -> x F_i^n v with companions, between fixed modules.

    The modes obey the commutation law [X, V_n] = (kappa - n) V_n(X), where
    kappa is the i-th label of the target weight.  ``_generator_companion``
    gives V_n(X) for a single generator; companions of bracket trees follow
    from the generators' by induction.
    """

    def __init__(self, target: VermaModule, source: VermaModule, i: int):
        self.target = target
        self.source = source
        self.i = i
        self.cd = target.cd
        expected = self.cd.reflect(target.hw, i)
        if tuple(source.hw) != tuple(expected):
            raise ValueError("source weight is not the reflection of the target weight")
        self.kappa = target.hw[i]

    def _retag(self, vec: VermaVector) -> VermaVector:
        return VermaVector(self.target, vec.terms)

    def apply(self, n: int, vec: VermaVector) -> VermaVector:
        return self.target.multiply_right(self._retag(vec), (self.i,) * n)

    def _generator_companion(self, tree, n: int, vec: VermaVector) -> VermaVector:
        kind, j = tree
        if kind == "f":
            return self.target.zero()
        if kind == "h":
            return self.cd.a(j, self.i) * self.apply(n, vec)
        out = self.cd.a(j, self.i) * self.apply(n, self.source.apply_derivation(j, vec))
        if j == self.i and n >= 1:
            out = out + n * self.apply(n - 1, vec)
        return out

    def companion(self, tree, n: int, vec):
        if tree[0] == "br":
            _, x, y = tree
            return self._bracket_with(x, y, n, vec) - self._bracket_with(y, x, n, vec)
        return self._generator_companion(tree, n, vec)

    def _bracket_with(self, x, y, n: int, vec):
        inner = self.companion(y, n, vec)
        return self.target.act(x, inner) - self.companion(y, n, self.source.act(x, vec))

    def commutator(self, tree, n: int, vec):
        return self.target.act(tree, self.apply(n, vec)) - self.apply(n, self.source.act(tree, vec))

    def commutation_defect(self, tree, n: int, vec):
        return self.commutator(tree, n, vec) - (self.kappa - n) * self.companion(tree, n, vec)


# ---------------------------------------------------------------------------
# cochains attached to a reduced reflection word


def _sgn_positions(ps: Sequence[int]) -> int:
    """sgn() = 0; sgn(p_1..p_m) = sgn(p_1..p_{m-1}) + p_m + m, positions 1-based."""
    s = 0
    for m, p in enumerate(ps, start=1):
        s += p + m
    return s


def _perm_sign(sigma: Sequence[int]) -> int:
    inv = 0
    for x in range(len(sigma)):
        for y in range(x + 1, len(sigma)):
            if sigma[x] > sigma[y]:
                inv += 1
    return -1 if inv % 2 else 1


class ReflectionCochains(TotalComplex):
    """Cochain family for a word of simple reflections.

    Slot p (1-based) carries the mode family between M(lam_{p+1}) and
    M(lam_p); the depth-m component replaces m of the slots by companion
    factors of the supplied Lie elements, with the inductive position sign and
    the permutation sign, and keeps dz's at the unreplaced positions.  Values
    are Laurent forms with module-vector coefficients.  A slot's exponent is
    minus its mode, less one more where it keeps dz.  The family's ``window``
    is every total degree from -a*mode_max up, and each component is exact
    on it: its slots thread modes under the budget that window needs,
    a*mode_max less the number of dz slots.  At mode_max 0 the budget is 0:
    dz terms sit below the window, and a row that reads only them raises
    "window exceeded" rather than compare nothing.
    """

    def __init__(
        self,
        cd: CartanData,
        hw: Sequence,
        reflections: Sequence[int],
        ctx: ParameterContext,
        mode_max: int = 3,
    ):
        self.cd = cd
        self.ctx = ctx
        self.reflections = tuple(reflections)
        self.a = self.depth = len(self.reflections)
        self.mode_max = mode_max
        self.window = (-self.a * mode_max, math.inf)
        weights = cd.weight_sequence(tuple(ctx.scalar(x) for x in hw), self.reflections)
        self.modules = [VermaModule(cd, w, ctx) for w in weights]
        self.slots = []
        for p, i in enumerate(self.reflections):
            self.slots.append(ScreeningFamily(self.modules[p], self.modules[p + 1], i))
        self.target = self.modules[0]
        self.source = self.modules[-1]
        self.connection = Connection([fam.kappa for fam in self.slots])

    # -- cochain evaluation ---------------------------------------------------

    def component(self, xs: Sequence, u: VermaVector) -> LaurentForm:
        """The depth-len(xs) component applied to the test vector u."""
        a = self.a
        m = len(xs)
        terms: dict = {}
        for ps in itertools.combinations(range(1, a + 1), m):
            base_sign = (-1) ** _sgn_positions(ps)
            dz_subset = tuple(q - 1 for q in range(1, a + 1) if q not in ps)
            for sigma in itertools.permutations(range(m)):
                sign = base_sign * _perm_sign(sigma)
                slot_tree = {ps[j]: xs[sigma[j]] for j in range(m)}
                self._thread(terms, dz_subset, slot_tree, u, sign)
        return LaurentForm(a, terms)

    def _thread(self, terms, dz_subset, slot_tree, u, sign):
        a = self.a
        exps = [0] * a

        def rec(p: int, vec: VermaVector, budget: int):
            if vec.is_zero():
                return
            if p == 0:
                key = (dz_subset, tuple(exps))
                add = sign * vec
                terms[key] = terms[key] + add if key in terms else add
                return
            fam = self.slots[p - 1]
            tree = slot_tree.get(p)
            for n in range(budget + 1):
                if tree is None:
                    exps[p - 1] = -n - 1
                    rec(p - 1, fam.apply(n, vec), budget - n)
                else:
                    exps[p - 1] = -n
                    rec(p - 1, fam.companion(tree, n, vec), budget - n)
            exps[p - 1] = 0

        try:
            rec(a, u, max(a * self.mode_max - len(dz_subset), 0))
        finally:
            del rec  # rec's cell refers to rec: break the cycle

    # -- total-complex data -----------------------------------------------------

    bracket = staticmethod(br)

    def act_target(self, x, v: VermaVector) -> VermaVector:
        return self.target.act(x, v)

    def act_source(self, x, u: VermaVector) -> VermaVector:
        return self.source.act(x, u)

    # bound in the class body: perfbench/tracer.py wraps it via __dict__
    residual = TotalComplex.residual

    # -- residue at integral exponents ------------------------------------------

    def residue(self, u: VermaVector) -> VermaVector:
        """Iterated residue of the top component on u, by the mode route.

        Slot p applies its mode kappa_p, last slot first.  This is the
        coefficient that ``TotalComplex.residue`` reads off the top component,
        without building that component, whose slots thread every mode
        its window needs.  A negative kappa_p is rejected, since
        ``ScreeningFamily.apply`` would take it for the identity.
        """
        kappas, _ = self.residue_exponents()
        if any(k < 0 for k in kappas):
            raise ValueError("residue intertwiner needs nonnegative integer pairings")
        for fam, k in reversed(list(zip(self.slots, kappas))):
            u = fam.apply(k, u)
        return u
