"""Rank-one current algebra on a charged-pair-plus-boson Fock module.

Builds the three weight-one currents out of the charged pair and one free
boson and machine-checks, in exact arithmetic over the parameter field, that
their singular products close on the level-k bracket table (k = nu^2 - 2) by
both the contraction route and the mode route, on light probes, on deep
probes and on full small blocks.

The screening current, its multi-slot cochains and the descent of its
companion family live in ``wakimoto_screenings``, so this module loads
without the forms and Virasoro layers.  Scalars stay in the exact
rational-function field throughout; every check returns a CheckResult and
negative controls guard against vacuous passes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as QQ
from typing import Mapping, Sequence

from .checks import _fmt, control, first_failure, passed
from .fields import FieldExpr, mode_of_field, ope_bracket_action, wick_ope
from .fock import FockSpace, FockVector, ModeOperator, OscSpec, commutator_blocks, osc_apply
from .scalars import Combination, ParameterContext, ParamScalar

__all__ = [
    "AffineParams",
    "LoopElement",
    "CurrentAction",
    "wakimoto_current",
    "current_bracket",
    "current_pairing",
    "wakimoto_space",
    "verify_current_algebra",
]


def __getattr__(name):
    # perfbench/ imports these two from here; the screening module loads on first use
    if name in ("ScreeningCochains", "screening_ops"):
        from . import wakimoto_screenings

        return getattr(wakimoto_screenings, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# -- parameters and currents ----------------------------------------------------------

_GENERATORS = ("E", "H", "F")
_ORDERED_PAIRS = tuple(itertools.product(_GENERATORS, repeat=2))

# structure constants of the rank-one triple: [H,E]=2E, [H,F]=-2F, [E,F]=H
_BRACKET_TABLE = {
    ("H", "E"): ((QQ(2), "E"),),
    ("E", "H"): ((QQ(-2), "E"),),
    ("H", "F"): ((QQ(-2), "F"),),
    ("F", "H"): ((QQ(2), "F"),),
    ("E", "F"): ((QQ(1), "H"),),
    ("F", "E"): ((QQ(-1), "H"),),
}

# normalized invariant form: (E,F) = (F,E) = 1, (H,H) = 2
_FORM_TABLE = {("E", "F"): QQ(1), ("F", "E"): QQ(1), ("H", "H"): QQ(2)}


class AffineParams:
    """Deformation parameter nu (level k = nu^2 - 2) and vacuum label chi.

    nu must stay away from zero: the construction needs the level shifted
    off the critical value, and every formula divides by nu somewhere.
    """

    __slots__ = ("ctx", "nu", "chi")

    def __init__(self, ctx: ParameterContext, nu=None, chi=None):
        self.ctx = ctx
        self.nu = ctx.scalar(nu) if nu is not None else ctx.param("nu")
        if self.nu.is_zero():
            raise ValueError("critical deformation: nu must be nonzero")
        if chi is not None:
            self.chi = ctx.scalar(chi)
        elif "chi" in ctx.names:
            self.chi = ctx.param("chi")
        else:
            self.chi = ctx.zero()

    @classmethod
    def generic(cls) -> "AffineParams":
        """Fresh context with both nu and chi symbolic."""
        return cls(ParameterContext(("nu", "chi")))

    @property
    def level(self) -> ParamScalar:
        return self.nu * self.nu - self.ctx.scalar(2)

    def __repr__(self):
        return "AffineParams(nu=%s, chi=%s)" % (self.nu, self.chi)


def wakimoto_current(name: str, params: AffineParams) -> FieldExpr:
    """The three weight-one currents over the charged pair and the boson."""
    ctx = params.ctx
    nu = params.nu
    beta = FieldExpr.field(ctx, "beta", 0)
    gamma = FieldExpr.field(ctx, "gamma", 0)
    p = FieldExpr.field(ctx, "p", 0)
    key = name.upper()
    if key == "E":
        return beta
    if key == "H":
        return QQ(2) * (gamma * beta) + nu * p
    if key == "F":
        return (
            QQ(-1) * (gamma * (gamma * beta))
            + (QQ(-1) * nu) * (gamma * p)
            + (QQ(-1) * params.level) * FieldExpr.field(ctx, "gamma", 1)
        )
    raise ValueError("unknown current %r (expected one of E, H, F)" % (name,))


def current_bracket(params: AffineParams, x: str, y: str) -> FieldExpr:
    """[x, y] as a current expression (zero when the bracket vanishes)."""
    out = FieldExpr.zero(params.ctx)
    for coeff, z in _BRACKET_TABLE.get((x.upper(), y.upper()), ()):
        out = out + coeff * wakimoto_current(z, params)
    return out


def current_pairing(params: AffineParams, x: str, y: str) -> ParamScalar:
    """Level times the normalized invariant form (the double-pole scalar)."""
    c = _FORM_TABLE.get((x.upper(), y.upper()))
    if c is None:
        return params.ctx.zero()
    return c * params.level


def wakimoto_space(params: AffineParams, chi=None) -> FockSpace:
    """Charged-pair-plus-boson Fock module carrying the current action.

    The boson vacuum label is -chi/(2 nu), so the zero mode of the Cartan
    current acts on the vacuum by chi (``params.chi`` by default).  One
    screening slot lowers chi by 2 (it translates the boson label by 1/nu).
    """
    chi = params.chi if chi is None else params.ctx.scalar(chi)
    label = (QQ(-1, 2) * chi) / params.nu
    return FockSpace(OscSpec(params.ctx, has_pair=True), label)


class LoopElement(Combination):
    """Formal combination of loop generators X<n> plus the central element.

    Terms are keyed by ("E"|"H"|"F", n) or by the string "c" for the center.
    The bracket realizes the loop relations with the normalized form on the
    central term: [X<a>, Y<b>] = [X,Y]<a+b> + a (X,Y) delta_{a+b,0} c.
    """

    __slots__ = ("ctx",)
    _space = "ctx"

    def __init__(self, ctx: ParameterContext, terms: Mapping):
        self.ctx = ctx
        clean = {}
        for key, value in terms.items():
            value = ctx.scalar(value)
            if not value.is_zero():
                clean[key] = value
        self.terms = clean

    @classmethod
    def basis(cls, ctx: ParameterContext, name: str, n: int) -> "LoopElement":
        name = name.upper()
        if name not in _GENERATORS:
            raise ValueError("unknown generator %r" % (name,))
        return cls(ctx, {(name, int(n)): ctx.one()})

    @classmethod
    def center(cls, ctx: ParameterContext) -> "LoopElement":
        return cls(ctx, {"c": ctx.one()})

    def _like(self, terms: dict) -> "LoopElement":
        return LoopElement(self.ctx, terms)

    def __rmul__(self, scalar) -> "LoopElement":
        scalar = self.ctx.scalar(scalar)
        return LoopElement(self.ctx, {k: scalar * v for k, v in self.terms.items()})

    def bracket(self, other: "LoopElement") -> "LoopElement":
        out: dict = {}

        def bump(key, value):
            out[key] = out[key] + value if key in out else value

        for k1, c1 in self.terms.items():
            if k1 == "c":
                continue
            for k2, c2 in other.terms.items():
                if k2 == "c":
                    continue
                (x, a), (y, b) = k1, k2
                for coeff, z in _BRACKET_TABLE.get((x, y), ()):
                    bump((z, a + b), (coeff * c1) * c2)
                form = _FORM_TABLE.get((x, y))
                if form is not None and a + b == 0 and a != 0:
                    bump("c", (QQ(a) * form * c1) * c2)
        return LoopElement(self.ctx, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=str):
            c = self.terms[key]
            body = "c" if key == "c" else "%s<%d>" % key
            bits.append("(%s)*%s" % (c, body))
        return " + ".join(bits)


class CurrentAction:
    """Exact mode action of the three currents on one Fock module.

    Keeps one ``mode_of_field`` operator per mode X<n>; the operator
    memoizes the image of each source monomial, so every route through this
    action (``apply``, ``apply_element``, block matrices) shares one memo.
    """

    __slots__ = ("params", "space", "level", "_exprs", "_modes")

    def __init__(self, params: AffineParams, space: FockSpace):
        self.params = params
        self.space = space
        self.level = params.level
        self._exprs = {name: wakimoto_current(name, params) for name in _GENERATORS}
        self._modes: dict = {}

    def field(self, name: str) -> FieldExpr:
        return self._exprs[name.upper()]

    def mode(self, name: str, n: int) -> ModeOperator:
        """X<n> for the current named X (weight-one mode convention)."""
        key = (name.upper(), n)
        op = self._modes.get(key)
        if op is None:
            op = self._modes[key] = mode_of_field(self._exprs[key[0]], n, self.space)
        return op

    def apply(self, name: str, n: int, vec: FockVector) -> FockVector:
        """X<n> vec for the current named X (weight-one mode convention)."""
        return self.mode(name, n).apply(vec)

    def apply_element(self, x: LoopElement, vec: FockVector) -> FockVector:
        out = self.space.zero()
        for key, c in x.terms.items():
            if key == "c":
                out = out + (c * self.level) * vec
            else:
                out = out + c * self.apply(key[0], key[1], vec)
        return out


# -- probe vectors -----------------------------------------------------------------


def _unit(space: FockSpace, modes: Sequence) -> FockVector:
    vec = space.vacuum()
    for mode in modes:
        vec = osc_apply(mode, vec)
    return vec


def _core_probes(space: FockSpace) -> list:
    return [
        space.vacuum(),
        _unit(space, [("b", -1)]),
        _unit(space, [("as", -1)]),
        _unit(space, [("a", -1)]),
        _unit(space, [("as", -1), ("b", -1)]),
    ]


def _deep_probes(space: FockSpace) -> list:
    return [
        _unit(space, [("b", -2), ("a", -1), ("as", -1)]),
        _unit(space, [("as", -1), ("as", -1), ("as", -2)]),
        _unit(space, [("a", -1), ("a", -1), ("a", -2)]),
        _unit(space, [("b", -5)]),
        _unit(space, [("as", -2), ("as", -3)]),
    ]


# -- current algebra checks ---------------------------------------------------------


def verify_current_algebra(mode_max: int = 4, params: AffineParams | None = None) -> list:
    """Bracket table of the three currents, by contraction and by modes.

    The contraction route compares each singular product against the
    level-k table symbolically; the mode route checks
    [X<n>, Y<m>] = [X,Y]<n+m> + n (X,Y) k delta_{n+m,0} on light probes
    and on fixed deep probes reaching energy 5 and charge 3, and every mode
    bracket is cross-checked against the bracket extracted from the
    contraction table.
    """
    params = params or AffineParams.generic()
    ctx = params.ctx
    space = wakimoto_space(params)
    act = CurrentAction(params, space)
    results = []

    # contraction route: all ordered pairs
    opes = {(x, y): wick_ope(act.field(x), act.field(y)) for x, y in _ORDERED_PAIRS}

    def table_holds(x, y):
        ope = opes[(x, y)]
        return (
            ope.max_order() <= 2
            and ope.pole(2) == FieldExpr.scalar(ctx, current_pairing(params, x, y))
            and ope.pole(1) == current_bracket(params, x, y)
        )

    results.append(
        passed(
            "current-ope-table",
            "singular products of the three currents equal the level-k "
            "bracket table",
            *first_failure(
                _ORDERED_PAIRS,
                table_holds,
                lambda x, y: "%s(z)%s(w) = %s" % (x, y, opes[(x, y)].render()),
            ),
        )
    )

    def mode_rhs(x, y, n, m, vec):
        elem = LoopElement.basis(ctx, x, n).bracket(LoopElement.basis(ctx, y, m))
        return act.apply_element(elem, vec)

    def bracket_verdicts(x, y, n, m, vec):
        """Whether the mode bracket matches the loop relations, and whether
        it matches the bracket extracted from the contraction table."""
        lhs = act.apply(x, n, act.apply(y, m, vec)) - act.apply(y, m, act.apply(x, n, vec))
        rhs = mode_rhs(x, y, n, m, vec)
        cross = ope_bracket_action(opes[(x, y)], -n - 1, -m - 1, vec)
        return (lhs - rhs).is_zero(), (cross - lhs).is_zero()

    def bracket_witness(x, y, n, m, vec):
        return "[%s<%d>, %s<%d>] on %s" % (x, n, y, m, _fmt(vec))

    pairs = [("E", "H"), ("E", "F"), ("H", "F"), ("E", "E"), ("H", "H"), ("F", "F")]
    core = _core_probes(space)

    # every (n, m) in the grid is exercised and cross-checked; the probe
    # rotates deterministically through the core list so each bracket hits
    # a different block without multiplying the grid size
    span = range(-mode_max, mode_max + 1)
    width = 2 * mode_max + 1
    core_grid = [
        (x, y, n, m, core[((n + mode_max) * width + (m + mode_max)) % len(core)])
        for x, y in pairs
        for n in span
        for m in span
    ]
    # one computation per grid point feeds both the core and the agreement check
    core_verdicts = [bracket_verdicts(*case) for case in core_grid]
    results.append(
        passed(
            "current-modes-core",
            "mode brackets close on the loop relations for |n|,|m| <= %d "
            "on light probes" % mode_max,
            *first_failure(
                zip(core_grid, core_verdicts),
                lambda case, verdicts: verdicts[0],
                lambda case, verdicts: bracket_witness(*case),
            ),
        )
    )

    deep = _deep_probes(space)
    results.append(
        passed(
            "current-modes-deep",
            "mode brackets close on probes reaching energy 5 and charge 3",
            *first_failure(
                (
                    (x, y, n, m, deep[(px + (n + 2) * 5 + (m + 2)) % len(deep)])
                    for px, (x, y) in enumerate(pairs)
                    for n in range(-2, 3)
                    for m in range(-2, 3)
                ),
                lambda *case: all(bracket_verdicts(*case)),
                bracket_witness,
            ),
        )
    )
    results.append(
        passed(
            "current-route-agreement",
            "bracket extracted from each contraction table equals the "
            "direct mode bracket on every probe",
            *first_failure(
                zip(core_grid, core_verdicts),
                lambda case, verdicts: verdicts[1],
                lambda case, verdicts: "(%s,%s,n=%d,m=%d)" % case[:4],
            ),
        )
    )

    # exhaustive small blocks through matrices
    def block_holds(x, y, n, m, energy, charge):
        elem = LoopElement.basis(ctx, x, n).bracket(LoopElement.basis(ctx, y, m))
        src, tgt, rows = commutator_blocks(act.mode(x, n), act.mode(y, m), energy, charge)
        return all(
            FockVector(space, {tgt[i]: rows[i][j] for i in range(len(tgt))})
            == act.apply_element(elem, FockVector(space, {mon: ctx.one()}))
            for j, mon in enumerate(src)
        )

    results.append(
        passed(
            "current-modes-blocks",
            "exact block matrices of mode commutators match the loop "
            "relations on full small blocks",
            *first_failure(
                (
                    (x, y, n, m, energy, charge)
                    for x, y in (("E", "F"), ("H", "F"), ("H", "E"))
                    for n, m in ((1, -1), (0, 0), (2, -2), (-1, 1))
                    for energy in range(0, 3)
                    for charge in range(-2, 3)
                ),
                block_holds,
                lambda *case: "(%s,%s,n=%d,m=%d) block (%d,%d)" % case,
            ),
        )
    )

    vac = space.vacuum()
    lhs = act.apply("E", 2, act.apply("F", -2, vac)) - act.apply(
        "F", -2, act.apply("E", 2, vac)
    )
    wrong = act.apply("H", 0, vac) + (QQ(2) * (params.level + ctx.one())) * vac
    results.append(
        control(
            "current-wrong-level",
            "shifting the level by one must break the central term",
            broke=not (lhs - wrong).is_zero(),
            witness="defect %s" % _fmt(lhs - wrong),
        )
    )
    stripped = act.field("H") - params.nu * FieldExpr.field(ctx, "p", 0)
    broken = wick_ope(stripped, stripped)
    results.append(
        control(
            "current-drop-boson",
            "removing the boson part of the Cartan current must break "
            "its double pole",
            broke=broken.pole(2) != FieldExpr.scalar(ctx, QQ(2) * params.level),
            witness=broken.render(),
        )
    )
    return results

