"""Mode-indexed intertwining operators between highest-weight modules.

Layers:

* a rank-one toy model with explicit closed formulas (oracle for the general
  machinery), including the uniqueness scan that pins down the screening
  eigenvalue and companion coefficients;

* the general construction ``x v -> x F_i^n v`` between a module and its
  reflected-weight partner, with companion maps per Lie-algebra element and
  the mode-wise commutation law ``[X, V_n] = (kappa - n) V_n(X)``;

* multi-variable cochains attached to a reduced reflection word, the total
  complex residuals pairing the Koszul differential with the twisted de Rham
  differential, and the residue of the top component at nonnegative integral
  exponents (``ReflectionCochains.residue``), a module map whose intertwining
  defect vanishes; ``residue_functional`` reads the same residue off a
  Laurent form.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .scalars import ParameterContext, ParamScalar
from .kacmoody import CartanData, VermaModule, VermaVector, br
from .forms import Connection, LaurentForm, TotalComplex, _in_window, _scalar_is_zero

__all__ = [
    "ToyModule",
    "ToyVector",
    "ToyScreening",
    "toy_uniqueness_scan",
    "ScreeningFamily",
    "ReflectionCochains",
    "residue_functional",
]


# ---------------------------------------------------------------------------
# rank-one toy layer: explicit formulas on the basis F^a v


class ToyVector:
    """Finitely supported map exponent -> scalar over a fixed module."""

    __slots__ = ("module", "comps")

    def __init__(self, module: "ToyModule", comps: dict):
        self.module = module
        self.comps = {a: c for a, c in comps.items() if not _scalar_is_zero(c)}

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

    def __init__(self, ctx: ParameterContext, mu):
        self.ctx = ctx
        self.mu = ctx.scalar(mu)

    def zero(self) -> ToyVector:
        return ToyVector(self, {})

    def vacuum(self) -> ToyVector:
        return ToyVector(self, {0: self.ctx.one()})

    def basis(self, a_max: int) -> list:
        return [ToyVector(self, {a: self.ctx.one()}) for a in range(a_max + 1)]

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


class ModeFamily:
    """Mode operators V_n: source -> target with companion families V_n(X).

    Subclasses supply the ``target`` and ``source`` modules (each with
    ``act(tree, vec)``), the modes ``apply(n, vec)``, the companion of a
    single generator ``_generator_companion(tree, n, vec)`` and the
    eigenvalue ``kappa`` of the commutation law [X, V_n] = (kappa - n) V_n(X).
    Companions of bracket trees follow from the generators' by induction.
    """

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


class ToyScreening(ModeFamily):
    """Mode operators F^a v -> F^(a+n) v from weight -lam-1 to weight lam-1."""

    def __init__(self, ctx: ParameterContext, lam):
        self.ctx = ctx
        self.lam = self.kappa = ctx.scalar(lam)
        self.target = ToyModule(ctx, self.lam - 1)
        self.source = ToyModule(ctx, -self.lam - 1)

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


def _collect_constraints(scalar: ParamScalar, names: Sequence[str]) -> dict:
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


# ---------------------------------------------------------------------------
# general screening family between a module and its reflected partner


class ScreeningFamily(ModeFamily):
    """V_n: x v' -> x F_i^n v with companions, between fixed modules."""

    def __init__(self, target: VermaModule, source: VermaModule, i: int):
        self.target = target
        self.source = source
        self.i = i
        self.cd = target.cd
        expected = self.cd.reflect(target.hw, i)
        if tuple(source.hw) != tuple(expected):
            raise ValueError("source weight is not the reflection of the target weight")
        self.kappa = target.hw[i]

    @classmethod
    def from_weight(cls, cd: CartanData, hw: Sequence, i: int, ctx: ParameterContext):
        target = VermaModule(cd, hw, ctx)
        source = VermaModule(cd, cd.reflect(target.hw, i), ctx)
        return cls(target, source, i)

    def _retag(self, vec: VermaVector) -> VermaVector:
        return VermaVector(self.target, vec.comps)

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
    are windowed Laurent forms with module-vector coefficients.
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
        window = tuple((-self.mode_max, None) for _ in range(a))
        terms: dict = {}
        for ps in itertools.combinations(range(1, a + 1), m):
            base_sign = (-1) ** _sgn_positions(ps)
            dz_subset = tuple(q - 1 for q in range(1, a + 1) if q not in ps)
            for sigma in itertools.permutations(range(m)):
                sign = base_sign * _perm_sign(sigma)
                slot_tree = {ps[j]: xs[sigma[j]] for j in range(m)}
                self._thread(terms, dz_subset, slot_tree, u, sign)
        return LaurentForm(a, terms, window)

    def _thread(self, terms, dz_subset, slot_tree, u, sign):
        a = self.a
        exps = [0] * a

        def rec(p: int, vec: VermaVector):
            if vec.is_zero():
                return
            if p == 0:
                key = (dz_subset, tuple(exps))
                add = sign * vec
                terms[key] = terms[key] + add if key in terms else add
                return
            fam = self.slots[p - 1]
            tree = slot_tree.get(p)
            for n in range(self.mode_max + 1):
                if tree is None:
                    exps[p - 1] = -n - 1
                    rec(p - 1, fam.apply(n, vec))
                else:
                    exps[p - 1] = -n
                    rec(p - 1, fam.companion(tree, n, vec))
            exps[p - 1] = 0

        rec(a, u)

    # -- total-complex data -----------------------------------------------------

    bracket = staticmethod(br)

    def act_target(self, x, v: VermaVector) -> VermaVector:
        return self.target.act(x, v)

    def act_source(self, x, u: VermaVector) -> VermaVector:
        return self.source.act(x, u)

    # bound in the class body: perfbench/tracer.py wraps it via __dict__
    residual = TotalComplex.residual

    # -- residue at integral exponents ------------------------------------------

    def residue_exponents(self) -> list:
        """The connection's exponents kappa_p, which must be nonnegative integers."""
        out = []
        for k in self.connection.kappa:
            if not (k.is_integer() and k.as_fraction() >= 0):
                raise ValueError("residue intertwiner needs nonnegative integer pairings")
            out.append(int(k.as_fraction()))
        return out

    def residue(self, u: VermaVector) -> VermaVector:
        """Iterated residue of the top component on u.

        Slot p applies its mode kappa_p, last slot first.
        """
        for fam, k in reversed(list(zip(self.slots, self.residue_exponents()))):
            u = fam.apply(k, u)
        return u


# ---------------------------------------------------------------------------
# residue functional


def residue_functional(form: LaurentForm, kappas: Sequence[int]):
    """Iterated residue of (prod z_p^kappa_p) * form against the full dz set.

    Picks the coefficient at exponents (-kappa_p - 1) on the top-degree
    component; raises if that point is outside the validity window.
    """
    a = form.nvars
    target = tuple(-k - 1 for k in kappas)
    full = tuple(range(a))
    if not _in_window(target, form.window):
        raise ValueError("residue exponents fall outside the validity window")
    for (subset, exps), value in form.terms.items():
        if subset == full and exps == target:
            return value
    return None
