"""Rank-one current algebra on a charged-pair-plus-boson Fock module.

Builds the three weight-one currents out of the charged pair and one free
boson and machine-checks, in exact arithmetic over the parameter field, that

* their singular products close on the level-k bracket table (k = nu^2 - 2)
  by both the contraction route and the mode route;
* the weight-one screening current (charged-pair prefactor times an
  exponential field with exponent 1/nu) commutes with every current mode up
  to the twisted derivative of a companion coefficient family;
* the multi-slot normal products of screening currents assemble into total
  cocycles for the loop-algebra Koszul complex relative to a log-derivative
  connection with one exponent per puncture and one weight per pair;
* the companion family, extended inductively over bracket trees in the three
  generators, descends to the quotient algebra (tree pairs with equal
  reductions get equal operator families).

Scalars stay in the exact rational-function field throughout; every check
returns a CheckResult and negative controls guard against vacuous passes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as QQ
from typing import Mapping, Sequence

from .checks import _fmt, control, first_failure, passed
from .fields import (
    FieldExpr,
    apply_field_coeff,
    mode_of_field,
    ope_bracket_action,
    wick_ope,
)
from .fock import (
    FockSpace,
    FockVector,
    OscSpec,
    commutator_blocks,
    monomial_energy,
    osc_apply,
)
from .forms import (
    Connection,
    LaurentForm,
    TotalComplex,
    WittElement,
    contraction_cochain,
)
from .scalars import ParameterContext, ParamScalar
from .virasoro import multi_vertex_form

__all__ = [
    "AffineParams",
    "LoopElement",
    "CurrentAction",
    "ScreeningData",
    "ScreeningCochains",
    "wakimoto_current",
    "current_bracket",
    "current_pairing",
    "wakimoto_space",
    "screening_ops",
    "verify_current_algebra",
    "screening_contraction_coefficients",
    "verify_screening_regularity",
    "verify_screened_current_brackets",
    "screening_cocycle",
    "generic_extension_and_descent",
]


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

    def __init__(self, ctx: ParameterContext | None = None, nu=None, chi=None):
        if ctx is None:
            ctx = ParameterContext(("nu", "chi"))
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


class LoopElement:
    """Formal combination of loop generators X<n> plus the central element.

    Terms are keyed by ("E"|"H"|"F", n) or by the string "c" for the center.
    The bracket realizes the loop relations with the normalized form on the
    central term: [X<a>, Y<b>] = [X,Y]<a+b> + a (X,Y) delta_{a+b,0} c.
    """

    __slots__ = ("ctx", "terms")

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

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LoopElement") -> "LoopElement":
        out = dict(self.terms)
        for key, value in other.terms.items():
            out[key] = out[key] + value if key in out else value
        return LoopElement(self.ctx, out)

    def __rmul__(self, scalar) -> "LoopElement":
        scalar = self.ctx.scalar(scalar)
        return LoopElement(self.ctx, {k: scalar * v for k, v in self.terms.items()})

    def __neg__(self) -> "LoopElement":
        return QQ(-1) * self

    def __sub__(self, other: "LoopElement") -> "LoopElement":
        return self + (-other)

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
    """Cached exact mode action of the three currents on one Fock module."""

    __slots__ = ("params", "space", "level", "_exprs", "_cache")

    def __init__(self, params: AffineParams, space: FockSpace):
        self.params = params
        self.space = space
        self.level = params.level
        self._exprs = {name: wakimoto_current(name, params) for name in _GENERATORS}
        self._cache: dict = {}

    def field(self, name: str) -> FieldExpr:
        return self._exprs[name.upper()]

    def apply(self, name: str, n: int, vec: FockVector) -> FockVector:
        """X<n> vec for the current named X (weight-one mode convention)."""
        name = name.upper()
        out = None
        for mon, c in vec.terms.items():
            key = (name, n, mon)
            image = self._cache.get(key)
            if image is None:
                unit = FockVector(self.space, {mon: self.space.ctx.one()})
                image = apply_field_coeff(self._exprs[name], -n - 1, unit)
                self._cache[key] = image
            out = c * image if out is None else out + c * image
        return out if out is not None else self.space.zero()

    def apply_element(self, x: LoopElement, vec: FockVector) -> FockVector:
        out = self.space.zero()
        for key, c in x.terms.items():
            if key == "c":
                out = out + (c * self.level) * vec
            else:
                out = out + c * self.apply(key[0], key[1], vec)
        return out


# -- screening data --------------------------------------------------------------------


class ScreeningData:
    """The rank-one screening operator over the charged pair plus one boson.

    ``screen`` is the plain coefficient part of the screening current (the
    overall z-power twist is carried as the ``twist`` exponent and never
    expanded); ``images`` maps each generator name to the plain part of its
    companion field.  ``label_shift`` is the boson-label translation of one
    screening slot.  ``pair_weight`` is the pair exponent of the
    log-derivative connection used by the multi-slot cocycles.
    """

    __slots__ = ("params", "ctx", "screen", "images", "twist", "pair_weight", "label_shift")

    def __init__(self, params, screen, images, twist, pair_weight, label_shift):
        self.params = params
        self.ctx = params.ctx
        self.screen = screen
        self.images = dict(images)
        self.twist = twist
        self.pair_weight = pair_weight
        self.label_shift = label_shift

    def image(self, name: str) -> FieldExpr:
        return self.images[name.upper()]

    def loop_image_coeff(self, x: LoopElement, s: int, vec: FockVector) -> FockVector:
        """Coefficient s of the companion family of x, applied to vec.

        The loop shift acts by translating coefficients (a degree-n loop
        generator multiplies the family by the n-th power of the variable);
        the center has zero image.
        """
        target = vec.space.shifted(self.label_shift)
        out = FockVector(target, {})
        for key, c in x.terms.items():
            if key == "c":
                continue
            expr = self.images.get(key[0])
            if expr is None or expr.is_zero():
                continue
            out = out + c * apply_field_coeff(expr, s - key[1], vec)
        return out


def screening_ops(params: AffineParams | None = None) -> ScreeningData:
    """Screening current and companion family for the rank-one realization."""
    params = params or AffineParams.generic()
    ctx, nu = params.ctx, params.nu
    inv = ctx.one() / nu
    vertex = FieldExpr.vertex(ctx, inv)
    zero = FieldExpr.zero(ctx)
    return ScreeningData(
        params,
        screen=QQ(-1) * (FieldExpr.field(ctx, "beta", 0) * vertex),
        images={"E": zero, "H": zero, "F": (QQ(-1) * (nu * nu)) * vertex},
        twist=(QQ(-1) * params.chi) / (nu * nu),
        pair_weight=ctx.scalar(2) / (nu * nu),
        label_shift=inv,
    )


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
        src, tgt, rows = commutator_blocks(
            mode_of_field(wakimoto_current(x, params), n, space),
            mode_of_field(wakimoto_current(y, params), m, space),
            energy,
            charge,
        )
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


# -- screening current: contraction coefficients ------------------------------------


def screening_contraction_coefficients() -> list:
    """Singular part of the lowering current against a dressed charged factor.

    With a generic vertex exponent t, the product has a double pole
    -(2 t nu + k) V[t] and a simple pole (2 - 2 t nu) :gamma beta V[t]: +
    nu :p V[t]:.  The exponent 1/nu is the unique value killing the
    :gamma beta: residue, and there the whole singular part becomes the
    twisted derivative of the companion field.
    """
    ctx = ParameterContext(("nu", "chi", "t"))
    params = AffineParams(ctx)
    nu = params.nu
    t = ctx.param("t")
    results = []

    beta = FieldExpr.field(ctx, "beta", 0)
    gamma = FieldExpr.field(ctx, "gamma", 0)
    p = FieldExpr.field(ctx, "p", 0)
    vertex_t = FieldExpr.vertex(ctx, t)
    dressed = QQ(-1) * (beta * vertex_t)
    f_expr = wakimoto_current("F", params)

    ope = wick_ope(f_expr, dressed)
    two = ctx.scalar(2)
    expected2 = (QQ(-1) * (two * t * nu + params.level)) * vertex_t
    expected1 = ((two - two * t * nu) * (gamma * (beta * vertex_t))
                 + nu * (p * vertex_t))
    results.append(
        passed(
            "screen-pole-table",
            "the lowering current against the dressed charged factor has "
            "the stated double and simple poles for a generic exponent",
            ope.max_order() == 2
            and ope.pole(2) == expected2
            and ope.pole(1) == expected1,
            ope.render(),
        )
    )

    h_expr = wakimoto_current("H", params)
    e_expr = wakimoto_current("E", params)
    h_ope = wick_ope(h_expr, dressed)
    coeff = two - two * t * nu
    at_screen = two - two * (ctx.one() / nu) * nu
    results.append(
        passed(
            "screen-exponent-unique",
            "the Cartan current leaves residue (2 - 2 t nu) times the "
            "dressed factor, which vanishes exactly at the screening "
            "exponent 1/nu",
            h_ope.max_order() <= 1
            and h_ope.pole(1) == coeff * dressed
            and wick_ope(e_expr, dressed).is_regular()
            and (not coeff.is_zero())
            and at_screen.is_zero(),
            h_ope.render(),
        )
    )

    # the derivative identity behind the collapse, symbolically in t
    results.append(
        passed(
            "screen-derivative-identity",
            "the derivative of a vertex factor is minus its exponent times "
            "the boson-dressed vertex",
            vertex_t.derivative() == (QQ(-1) * t) * (p * vertex_t),
            "",
        )
    )

    data = screening_ops(params)
    collapse = wick_ope(f_expr, data.screen)
    g = data.image("F")
    results.append(
        passed(
            "screen-collapse",
            "at the screening exponent the singular part collapses to the "
            "companion field and its derivative",
            collapse.max_order() == 2
            and collapse.pole(2) == g
            and collapse.pole(1) == g.derivative()
            and g.derivative() == nu * (p * FieldExpr.vertex(ctx, ctx.one() / nu)),
            collapse.render(),
        )
    )

    wrong = QQ(-1) * (beta * FieldExpr.vertex(ctx, two / nu))
    broken = wick_ope(f_expr, wrong)
    residue = broken.pole(1) - broken.pole(2).derivative()
    results.append(
        control(
            "screen-wrong-exponent",
            "doubling the exponent must leave a charged residue that is "
            "not a total derivative",
            broke=not residue.is_zero(),
            witness=residue.render(),
        )
    )
    return results


# -- screening current: regularity and mode transport --------------------------------


def verify_screening_regularity(mode_max: int = 5) -> list:
    """Current products against the screening current, both routes.

    Contraction route: the raising and Cartan currents are regular against
    the screening current; the lowering current gives the companion field
    over the double pole and its derivative over the simple pole.  Mode
    route: with twist exponent tau = -chi/nu^2, the commutators satisfy
    [F<n>, S(s)] = (s + 1 + tau) G(s + 1 - n) on every probe, where S(s)
    and G(u) are the plain coefficient families, and the raising and Cartan
    modes commute with every S(s).
    """
    params = AffineParams.generic()
    ctx = params.ctx
    fam = ScreeningCochains(screening_ops(params), 1)
    data, source = fam.data, fam.source
    act_src, act_tgt = fam.act_src, fam.act_tgt
    results = []

    f_expr = act_src.field("F")
    g = data.image("F")
    ope_f = wick_ope(f_expr, data.screen)
    results.append(
        passed(
            "screen-ope-poles",
            "the lowering current against the screening current produces "
            "the companion field and its derivative",
            ope_f.max_order() == 2
            and ope_f.pole(2) == g
            and ope_f.pole(1) == g.derivative(),
            ope_f.render(),
        )
    )
    results.append(
        passed(
            "screen-ope-regular",
            "the raising and Cartan currents are regular against the "
            "screening current",
            wick_ope(act_src.field("E"), data.screen).is_regular()
            and wick_ope(act_src.field("H"), data.screen).is_regular(),
            "",
        )
    )

    # typing: one screening coefficient shifts the boson label by 1/nu,
    # i.e. it lands in the module whose weight label dropped by 2
    shifted = wakimoto_space(params, params.chi - ctx.scalar(2))
    results.append(
        passed(
            "screen-typing",
            "a screening coefficient lands in the module whose weight "
            "label dropped by two",
            fam.target == shifted
            and apply_field_coeff(data.screen, 0, source.vacuum()).space == shifted,
            "",
        )
    )

    tau = data.twist
    vac = source.vacuum()
    small = [
        _unit(source, [("as", -1)]),
        _unit(source, [("b", -1), ("a", -1)]),
    ]

    coeff_cache: dict = {}

    def screen_coeff(s, idx, vec):
        key = (s, idx)
        got = coeff_cache.get(key)
        if got is None:
            got = apply_field_coeff(data.screen, s, vec)
            coeff_cache[key] = got
        return got

    # the vacuum carries the full grid; the nontrivial probes use a
    # reduced one (the identity is linear over the block decomposition,
    # so small probes already exercise every structural path)
    span = range(-mode_max, mode_max + 1)
    grid = [(0, vac, n, -m - 1) for n in span for m in span]
    grid += [
        (1 + j, vec, n, s)
        for j, vec in enumerate(small)
        for n in range(-2, 3)
        for s in range(-4, 2)
    ]

    def screen_verdicts(idx, vec, n, s):
        """Whether [X<n>, S(s)] vec equals its expected value, per X."""
        fs = screen_coeff(s, idx, vec)
        verdicts = {}
        for name in ("F", "E", "H"):
            d = act_tgt.apply(name, n, fs) - apply_field_coeff(
                data.screen, s, act_src.apply(name, n, vec)
            )
            if name == "F":
                d = d - (ctx.scalar(s + 1) + tau) * apply_field_coeff(g, s + 1 - n, vec)
            verdicts[name] = d.is_zero()
        return verdicts

    # one computation per grid point feeds both the transport and the
    # invisibility check
    verdicts = [screen_verdicts(*case) for case in grid]
    results.append(
        passed(
            "screen-mode-transport",
            "lowering modes move the screening coefficients by the twisted "
            "derivative of the companion family (|n|,|s| <= %d)" % mode_max,
            *first_failure(
                zip(grid, verdicts),
                lambda case, zero: zero["F"],
                lambda case, zero: "n=%d, s=%d on %s" % (case[2], case[3], _fmt(case[1])),
            ),
        )
    )
    results.append(
        passed(
            "screen-mode-invisible",
            "raising and Cartan modes commute with every screening "
            "coefficient",
            *first_failure(
                (
                    (name, case, zero)
                    for case, zero in zip(grid, verdicts)
                    for name in ("E", "H")
                ),
                lambda name, case, zero: zero[name],
                lambda name, case, zero: "[%s<%d>, S(%d)] on %s" % (
                    name, case[2], case[3], _fmt(case[1])),
            ),
        )
    )

    f0 = screen_coeff(-1, 0, vac)
    lhs = act_tgt.apply("F", 0, f0) - apply_field_coeff(
        data.screen, -1, act_src.apply("F", 0, vac)
    )
    untwisted = ctx.scalar(0) * apply_field_coeff(g, 0, vac)
    results.append(
        control(
            "screen-drop-twist",
            "forgetting the twist exponent in the transport scalar must "
            "leave a nonzero defect",
            broke=not (lhs - untwisted).is_zero(),
            witness=_fmt(lhs - untwisted),
        )
    )
    return results


# -- screened current brackets --------------------------------------------------------


def _companion_commutator(
    fam: ScreeningCochains, word, image_of: LoopElement, s: int, vec: FockVector
) -> FockVector:
    """[word, companion(image_of)](s) vec for a bracket tree ``word``."""
    moved = _word_apply(fam.act_tgt, word, fam.data.loop_image_coeff(image_of, s, vec))
    back = fam.data.loop_image_coeff(image_of, s, _word_apply(fam.act_src, word, vec))
    return moved - back


def _descent_defect(fam: ScreeningCochains, word, s: int, vec: FockVector) -> FockVector:
    """Inductive companion rule on the tree [W1, W2] minus the companion
    family of its reduction: [W1, S(red W2)] - [W2, S(red W1)] - S(red [W1, W2])."""
    _, w1, w2 = word
    ctx = fam.ctx
    lhs = _companion_commutator(fam, w1, _word_reduce(ctx, w2), s, vec) - _companion_commutator(
        fam, w2, _word_reduce(ctx, w1), s, vec
    )
    return lhs - fam.data.loop_image_coeff(_word_reduce(ctx, word), s, vec)


def _wrong_structure_defect(fam: ScreeningCochains) -> FockVector:
    """[H<0>, companion(F<0>)](0) on the vacuum against the companion of
    [H, F] with the structure constant flipped from -2 to +2."""
    f0 = LoopElement.basis(fam.ctx, "F", 0)
    vac = fam.source.vacuum()
    lhs = _companion_commutator(fam, ("gen", "H", 0), f0, 0, vac)
    return lhs - QQ(2) * fam.data.loop_image_coeff(f0, 0, vac)


def _companion_opes(params: AffineParams, data: ScreeningData) -> dict:
    """Singular parts of each current against each companion field."""
    return {
        (x, y): wick_ope(wakimoto_current(x, params), data.image(y))
        for x, y in _ORDERED_PAIRS
    }


def _companion_residue_defect(opes: dict, data: ScreeningData, x: str, y: str) -> FieldExpr:
    """Antisymmetrized companion residue of (x, y) minus the companion of [x, y]."""
    expected = FieldExpr.zero(data.ctx)
    for coeff, z in _BRACKET_TABLE.get((x, y), ()):
        expected = expected + coeff * data.image(z)
    return opes[(x, y)].pole(1) - opes[(y, x)].pole(1) - expected


def verify_screened_current_brackets(mode_max: int = 2) -> list:
    """Products of currents with companion fields and their antisymmetry.

    Every product of a current with a companion field has at most a simple
    pole; the antisymmetrized residue equals the companion field of the
    bracket; and the mode transcription holds including the central term
    (whose companion image is zero).
    """
    params = AffineParams.generic()
    ctx = params.ctx
    fam = ScreeningCochains(screening_ops(params), 1)
    data = fam.data
    results = []

    g = data.image("F")
    gamma_g = FieldExpr.field(ctx, "gamma", 0) * g
    opes = _companion_opes(params, data)

    results.append(
        passed(
            "screened-residues",
            "companion-field products: raising regular, Cartan residue "
            "-2 times the companion, lowering residue twice the "
            "charge-dressed companion",
            opes[("E", "F")].is_regular()
            and opes[("H", "F")].max_order() == 1
            and opes[("H", "F")].pole(1) == QQ(-2) * g
            and opes[("F", "F")].max_order() == 1
            and opes[("F", "F")].pole(1) == QQ(2) * gamma_g,
            "F-product: %s" % opes[("F", "F")].render(),
        )
    )
    results.append(
        passed(
            "screened-pole-shape",
            "every current against a companion field has at most a simple "
            "pole",
            *first_failure(
                _ORDERED_PAIRS,
                lambda x, y: opes[(x, y)].max_order() <= 1,
                lambda x, y: "%s against image of %s" % (x, y),
            ),
        )
    )
    results.append(
        passed(
            "screened-bracket-ope",
            "antisymmetrized companion residues realize the bracket's "
            "companion field",
            *first_failure(
                _ORDERED_PAIRS,
                lambda x, y: _companion_residue_defect(opes, data, x, y).is_zero(),
                lambda x, y: "(%s,%s): %s" % (
                    x, y, _companion_residue_defect(opes, data, x, y).render()),
            ),
        )
    )

    # mode route including central pairs
    grid = [(x, n, y, m)
            for x in _GENERATORS for y in _GENERATORS
            for n in range(-mode_max, mode_max + 1)
            for m in range(-mode_max, mode_max + 1)]
    grid += [("E", 3, "F", -3), ("H", 3, "H", -3), ("F", 4, "E", -4)]
    probes = [fam.source.vacuum(), _unit(fam.source, [("as", -1)])]
    results.append(
        passed(
            "screened-bracket-modes",
            "mode transcription of the companion bracket identity holds "
            "including central pairs",
            *first_failure(
                (
                    (x, n, y, m, s, vec)
                    for x, n, y, m in grid
                    for s in (-2, 0, 1)
                    for vec in probes
                ),
                lambda x, n, y, m, s, vec: _descent_defect(
                    fam, ("br", ("gen", x, n), ("gen", y, m)), s, vec
                ).is_zero(),
                lambda x, n, y, m, s, vec: (
                    "[%s<%d>, S(%s)] - [%s<%d>, S(%s)] at s=%d on %s"
                    % (x, n, y, y, m, x, s, _fmt(vec))
                ),
            ),
        )
    )

    defect = _wrong_structure_defect(fam)
    results.append(
        control(
            "screened-wrong-structure",
            "flipping the Cartan-lowering structure constant must leave "
            "a visible defect",
            broke=not defect.is_zero(),
            witness=_fmt(defect),
        )
    )
    return results


# -- multi-slot screening cocycles ----------------------------------------------------


class ScreeningCochains(TotalComplex):
    """Total cocycle rows for multi-slot screening products.

    The source is ``wakimoto_space(data.params)`` and the target its
    translate by ``slots`` label shifts, each with its ``CurrentAction``
    (``act_src``, ``act_tgt``); the one-slot family is the module and its
    screened partner for the single-screening batteries too.

    ``component(xs, u)`` is assembled like
    ``virasoro.VertexScreeningCochains``: the top form of the
    local system is the joint normal-ordered product of ``slots`` screening
    vertices V[label_shift](z_q) dz_q (``multi_vertex_form``) on u, and the
    depth-a component contracts a Witt elements into it
    (``contraction_cochain``, with its position signs and parity twist).
    Each loop element maps to sum c e_{n-1} over its F<n> terms, since
    contracting dz_q with e_{n-1} = -z^n d/dz substitutes the companion of
    F<n> (a multiple of the same vertex) into slot q; the raising and Cartan
    generators have no companion.  The slots that keep dz then take the
    charged prefactor -beta(z_q) of the screening current, and the
    substituted ones the scalar of the companion image.  A loop shift n may
    read the vertex at most ``mode_bound`` exponents past what the charged
    prefactor reads; a lower n raises "window exceeded".  Rows of the total
    differential combine the Koszul differential of the current action with
    the pair-cleared twisted de Rham differential (one twist exponent per
    slot, one pair weight per slot pair).
    """

    def __init__(
        self,
        data: ScreeningData,
        slots: int,
        window_halfwidth: int = 3,
        include_pairs: bool = True,
        mode_bound: int = 2,
    ):
        if slots < 1:
            raise ValueError("a screening cochain needs at least one slot, got %d" % slots)
        self.data = data
        self.ctx = data.ctx
        self.slots = self.depth = slots
        self.mode_bound = mode_bound
        params = self.params = data.params
        self.source = wakimoto_space(params)
        total_shift = data.label_shift * self.ctx.scalar(slots)
        self.target = self.source.shifted(total_shift)
        self.act_src = CurrentAction(params, self.source)
        self.act_tgt = CurrentAction(params, self.target)
        pairs = (
            {(i, j): data.pair_weight
             for i in range(slots) for j in range(i + 1, slots)}
            if include_pairs
            else None
        )
        self.connection = Connection([data.twist] * slots, pairs)
        half = window_halfwidth
        self.window = tuple((-half, half) for _ in range(slots))
        self._image_scale = self._vertex_multiple(data.image("F"))
        self._tops: dict = {}

    def _vertex_multiple(self, expr: FieldExpr) -> ParamScalar:
        """The scalar c with expr = c * V[label_shift]; rejects anything else."""
        terms = [(key, c) for key, c in expr.terms.items() if not c.is_zero()]
        if len(terms) == 1:
            (mu, factors), coeff = terms[0]
            if not factors and mu is not None and (mu - self.data.label_shift).is_zero():
                return coeff
        raise ValueError(
            "cocycle assembly needs companion images proportional to the screening vertex"
        )

    # -- components -------------------------------------------------------------

    def _unit_component(self, fields: list, mon) -> dict:
        """Terms of the depth-len(fields) component on one unit monomial.

        The unit's vertex top form is cached and built as far as the rows
        read it: the charged prefactor reads exponents up to hi + bound + 1,
        and a contraction with e_{n-1} up to hi - n, at most mode_bound
        further.
        """
        bound = monomial_energy(mon)
        lo, hi = self.window[0]
        shift = min((n + 1 for f in fields for n in f.coeffs), default=0)
        if shift < -(bound + 1 + self.mode_bound):
            raise ValueError(
                "window exceeded: loop shift %d pushes a slot past the "
                "materialized exponent window" % shift
            )
        reach = max(hi + bound + 1, hi - shift)
        omega = self._tops.get(mon)
        if omega is None or omega.window[0][1] < reach:
            unit = FockVector(self.source, {mon: self.ctx.one()})
            window = ((-bound, reach),) * self.slots
            omega = multi_vertex_form((self.data.label_shift,) * self.slots, unit, window)
            self._tops[mon] = omega
        # beta(z_q) = sum_m a_m z_q^(-m-1) on every slot that keeps dz (its
        # sign is in component); a_m with m past the energy bound kills the unit
        terms: dict = {}
        for (subset, exps), value in contraction_cochain(omega, fields).terms.items():
            if any(not lo <= e <= hi for q, e in enumerate(exps) if q not in subset):
                continue
            partial = [(exps, value)]
            for q in subset:
                partial = [
                    (e[:q] + (e[q] - m - 1,) + e[q + 1:], moved)
                    for e, w in partial
                    for m in range(e[q] - 1 - hi, min(e[q] - 1 - lo, bound) + 1)
                    for moved in (osc_apply(("a", m), w),)
                    if not moved.is_zero()
                ]
            for e, w in partial:
                key = (subset, e)
                terms[key] = terms[key] + w if key in terms else w
        return terms

    def _witt(self, x: LoopElement) -> WittElement:
        """sum c e_{n-1} over the F<n> terms of x, with Fraction c when rational."""
        return WittElement({
            key[1] - 1: c.as_fraction() if c.is_rational() else c
            for key, c in x.terms.items()
            if key != "c" and key[0] == "F"
        })

    def component(self, xs: Sequence, u: FockVector) -> LaurentForm:
        fields = [self._witt(x) for x in xs]
        a = len(fields)
        scale = QQ(-1) ** (self.slots - a) * self._image_scale ** a
        total: dict = {}
        for mon, cmon in u.terms.items():
            c = scale * cmon
            for key, value in self._unit_component(fields, mon).items():
                add = FockVector(self.target, (c * value).terms)
                total[key] = total[key] + add if key in total else add
        return LaurentForm(self.slots, total, self.window)

    def act_target(self, x: LoopElement, v: FockVector) -> FockVector:
        return self.act_tgt.apply_element(x, v)

    def act_source(self, x: LoopElement, u: FockVector) -> FockVector:
        return self.act_src.apply_element(x, u)

    # -- the rows ---------------------------------------------------------------

    # bound in the class body: perfbench/tracer.py wraps it via __dict__
    residual = TotalComplex.residual


def screening_cocycle(slots: int, window_halfwidth: int = 2, mode_max: int = 1) -> list:
    """Rows of the total differential on the multi-slot screening cochain.

    All rows from depth zero (the top form is closed) through depth
    slots + 1 (the fully substituted family is a Koszul cocycle) must clear
    to exact zero; dropping the pair weights of the connection must break a
    depth-one row.
    """
    if slots not in (1, 2, 3):
        raise ValueError("slots must be 1, 2, or 3")
    params = AffineParams.generic()
    ctx = params.ctx
    data = screening_ops(params)
    fam = ScreeningCochains(
        data, slots, window_halfwidth=window_halfwidth, mode_bound=2 * mode_max
    )
    results = []

    vac = fam.source.vacuum()
    probes = [vac, _unit(fam.source, [("as", -1)])]

    top = fam.component([], vac)
    comp = fam.component([LoopElement.basis(ctx, "F", 0)], vac)
    results.append(
        passed(
            "cocycle-%d-nonvacuous" % slots,
            "top and substituted components carry nonzero values inside "
            "the window",
            (not top.is_zero()) and (not comp.is_zero())
            and not top.window_is_empty(),
            "",
        )
    )

    span = range(-mode_max, mode_max + 1)
    combo = LoopElement.basis(ctx, "F", 1) + QQ(-2) * LoopElement.basis(ctx, "H", 0)
    singles = [LoopElement.basis(ctx, "F", n) for n in span]
    singles += [
        LoopElement.basis(ctx, "E", 1),
        LoopElement.basis(ctx, "H", 0),
        combo,
    ]
    rows: list = [[]]
    rows += [[x] for x in singles]
    rows += [
        [LoopElement.basis(ctx, "F", 1), LoopElement.basis(ctx, "F", -1)],
        [LoopElement.basis(ctx, "H", 1), LoopElement.basis(ctx, "F", -1)],
        [LoopElement.basis(ctx, "E", 1), LoopElement.basis(ctx, "F", -1)],
        [LoopElement.basis(ctx, "F", 0), combo],
    ]
    rows += [
        [
            LoopElement.basis(ctx, "E", 0),
            LoopElement.basis(ctx, "F", 0),
            LoopElement.basis(ctx, "H", 0),
        ],
        [
            LoopElement.basis(ctx, "F", 1),
            LoopElement.basis(ctx, "F", 0),
            LoopElement.basis(ctx, "F", -1),
        ],
    ]

    # deepest rows run on the vacuum; shallower ones also on the charged probe
    cases = [
        (xs, u)
        for xs in rows
        if len(xs) <= slots + 1
        for u in (probes[:1] if len(xs) > slots else probes)
    ]
    results.append(
        passed(
            "cocycle-%d-rows" % slots,
            "all %d total-differential rows clear to zero on %d-slot "
            "screening products" % (len(cases), slots),
            *first_failure(
                cases,
                lambda xs, u: fam.residual(xs, u).is_zero(),
                lambda xs, u: "depth %d row %r on %s" % (len(xs), xs, _fmt(u)),
            ),
        )
    )

    if slots >= 2:
        broken = ScreeningCochains(
            data, slots, window_halfwidth=window_halfwidth,
            include_pairs=False, mode_bound=2 * mode_max,
        )
        res = broken.residual([LoopElement.basis(ctx, "F", 0)], vac)
        results.append(
            control(
                "cocycle-%d-drop-pairs" % slots,
                "dropping the pair weights of the connection must break a "
                "depth-one row",
                broke=not res.is_zero(),
                witness="",
            )
        )
    return results


# -- generic extension and descent ----------------------------------------------------


def _word_reduce(ctx: ParameterContext, word) -> LoopElement:
    """Reduce a bracket tree over the loop generators to a loop element."""
    if word[0] == "gen":
        return LoopElement.basis(ctx, word[1], word[2])
    if word[0] == "br":
        return _word_reduce(ctx, word[1]).bracket(_word_reduce(ctx, word[2]))
    raise ValueError("malformed word %r" % (word,))


def _word_apply(act: CurrentAction, word, vec: FockVector) -> FockVector:
    """Apply a bracket tree as nested commutators of concrete mode actions."""
    if word[0] == "gen":
        return act.apply(word[1], word[2], vec)
    if word[0] == "br":
        left, right = word[1], word[2]
        return _word_apply(act, left, _word_apply(act, right, vec)) - _word_apply(
            act, right, _word_apply(act, left, vec)
        )
    raise ValueError("malformed word %r" % (word,))


def _word_render(word) -> str:
    if word[0] == "gen":
        return "%s<%d>" % (word[1], word[2])
    return "[%s, %s]" % (_word_render(word[1]), _word_render(word[2]))


def generic_extension_and_descent() -> list:
    """Descent of the inductively extended companion family to the quotient.

    For bracket trees [W1, W2] over the loop generators, the inductive rule
    evaluates [W1, S(red W2)] - [W2, S(red W1)] with nested machine-applied
    commutator actions and reduced companion families; descent holds when
    this equals the companion family of the reduced bracket.  Verified
    symbolically in (nu, chi), then at five random chi values plus one
    integral chi.  The antisymmetrized residue identity is re-reported here
    as supporting evidence for the conjectural generic-level statement
    (conjecture — evidence only).
    """
    params = AffineParams.generic()
    results = []

    def gen(name, n=0):
        return ("gen", name, n)

    def br(a, b):
        return ("br", a, b)

    word_pairs = [
        br(gen("E"), gen("F")),
        br(gen("H"), gen("F")),
        br(gen("H", 1), gen("F", -1)),
        br(gen("H", -1), gen("F", 1)),
        br(gen("E", 1), gen("F", -1)),
        br(gen("F", 1), gen("F", -1)),
        br(gen("E"), br(gen("E"), gen("F"))),
        br(gen("H"), br(gen("H"), gen("F"))),
        br(gen("F"), br(gen("H"), gen("F"))),
        br(br(gen("E"), gen("F")), gen("F")),
        br(br(gen("H"), gen("E")), gen("F")),
        br(gen("H", -1), br(gen("H", 1), gen("F"))),
    ]

    def descent_cases(fam, words, probes_count=2, s_values=(-1, 0, 1)):
        probes = [fam.source.vacuum(), _unit(fam.source, [("as", -1)])][:probes_count]
        for word in words:
            for s in s_values:
                for vec in probes:
                    yield fam, word, s, vec

    def descent_holds(fam, word, s, vec):
        return _descent_defect(fam, word, s, vec).is_zero()

    def descent_witness(fam, word, s, vec):
        return "word %s at s=%d on %s" % (_word_render(word), s, _fmt(vec))

    symbolic = ScreeningCochains(screening_ops(params), 1)
    results.append(
        passed(
            "descent-tree-pairs",
            "inductive companion rule on %d bracket trees matches the "
            "reduced seeds symbolically in (nu, chi)" % len(word_pairs),
            *first_failure(
                descent_cases(symbolic, word_pairs), descent_holds, descent_witness
            ),
        )
    )

    chis = [QQ(7, 3), QQ(-5, 2), QQ(13, 7), QQ(3, 5), QQ(-9, 4), QQ(2)]
    results.append(
        passed(
            "descent-specializations",
            "descent persists at five random weight labels plus one "
            "integral label",
            *first_failure(
                (
                    (chi,) + case
                    for chi in chis
                    for case in descent_cases(
                        ScreeningCochains(
                            screening_ops(AffineParams(ParameterContext(("nu",)), chi=chi)), 1
                        ),
                        word_pairs[:4],
                        probes_count=1,
                        s_values=(0, 1),
                    )
                ),
                lambda chi, *case: descent_holds(*case),
                lambda chi, *case: "chi=%s: %s" % (chi, descent_witness(*case)),
            ),
        )
    )

    opes = _companion_opes(params, symbolic.data)
    results.append(
        passed(
            "descent-conjecture-evidence",
            "antisymmetrized residue identity for the generic-level "
            "statement holds at rank one (conjecture — evidence only)",
            *first_failure(
                _ORDERED_PAIRS,
                lambda x, y: opes[(x, y)].max_order() <= 1
                and _companion_residue_defect(opes, symbolic.data, x, y).is_zero(),
                lambda x, y: "(%s,%s)" % (x, y),
            ),
        )
    )

    defect = _wrong_structure_defect(symbolic)
    results.append(
        control(
            "descent-wrong-reduction",
            "mis-reducing the Cartan-lowering bracket must leave a "
            "visible defect",
            broke=not defect.is_zero(),
            witness=_fmt(defect),
        )
    )
    return results
