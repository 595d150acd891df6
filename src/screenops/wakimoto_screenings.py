"""Screening current of the rank-one current algebra, and its cochains.

Over the Fock module and currents of ``wakimoto``, machine-checks in exact
arithmetic over the parameter field that

* the weight-one screening current (charged-pair prefactor times an
  exponential field with exponent 1/nu, the one exponent for which the
  lowering current's simple pole is a total derivative) commutes with every
  current mode up to the twisted derivative of a companion coefficient
  family, by the contraction route and the mode route in one battery;
* the multi-slot normal products of screening currents assemble into total
  cocycles for the loop-algebra Koszul complex relative to a log-derivative
  connection with one exponent per puncture and one weight per pair;
* the companion family, extended inductively over bracket trees in the three
  generators, descends to the quotient algebra (tree pairs with equal
  reductions get equal operator families).

Every check returns a CheckResult and negative controls guard against
vacuous passes.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction as QQ
from typing import Sequence

from .checks import _fmt, control, first_failure, passed
from .fields import FieldExpr, apply_field_coeff, wick_ope
from .fock import FockVector, osc_apply
from .forms import LaurentForm, TotalComplex, WittElement
from .scalars import ParameterContext, ParamScalar
from .virasoro import VertexCochains
from .wakimoto import (_BRACKET_TABLE, _GENERATORS, _ORDERED_PAIRS, AffineParams, CurrentAction,
                       LoopElement, _unit, wakimoto_current, wakimoto_space)

__all__ = [
    "ScreeningData",
    "ScreeningCochains",
    "screening_ops",
    "verify_screening_regularity",
    "verify_screened_current_brackets",
    "screening_cocycle",
]


# -- screening data --------------------------------------------------------------------


class ScreeningData:
    """The rank-one screening operator over the charged pair plus one boson.

    ``screen`` is the plain coefficient part of the screening current (the
    overall z-power twist is never expanded: it is the puncture exponent of
    the cochain family's connection); ``images`` maps each generator name to
    the plain part of its companion field.  ``label_shift`` is the
    boson-label translation of one screening slot, the exponent mu of its
    vertex part; the connection exponents pairing*alpha*mu and pairing*mu^2
    follow from it and the source label alpha (``virasoro.VertexCochains``).
    """

    __slots__ = ("params", "ctx", "screen", "images", "label_shift")

    def __init__(self, params, screen, images, label_shift):
        self.params = params
        self.ctx = params.ctx
        self.screen = screen
        self.images = dict(images)
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


def screening_ops(params: AffineParams) -> ScreeningData:
    """Screening current and companion family for the rank-one realization."""
    ctx, nu = params.ctx, params.nu
    inv = ctx.one() / nu
    vertex = FieldExpr.vertex(ctx, inv)
    zero = FieldExpr.zero(ctx)
    return ScreeningData(
        params,
        screen=QQ(-1) * (FieldExpr.field(ctx, "beta", 0) * vertex),
        images={"E": zero, "H": zero, "F": (QQ(-1) * (nu * nu)) * vertex},
        label_shift=inv,
    )



# -- screening current: contraction and mode routes ----------------------------------


def verify_screening_regularity(mode_max: int = 5) -> list:
    """Current products against the screening current, both routes.

    Contraction route at a generic vertex exponent t: the lowering current
    against the dressed charged factor has a double pole -(2 t nu + k) V[t]
    and a simple pole (2 - 2 t nu) :gamma beta V[t]: + nu :p V[t]:, and the
    exponent 1/nu is the unique value killing the :gamma beta: residue.  At
    the screening exponent, over (nu, chi) alone, the raising and Cartan
    currents are regular against the screening current, and the lowering
    current gives the companion field over the double pole and its
    derivative over the simple pole: ``screen-ope-poles`` and
    ``screen-collapse`` read this one OPE, and the collapse also checks that
    the derivative is nu :p V[1/nu]:.  Mode route: with twist exponent
    tau = -chi/nu^2, the commutators satisfy
    [F<n>, S(s)] = (s + 1 + tau) G(s + 1 - n) on every probe, where S(s)
    and G(u) are the plain coefficient families, and the raising and Cartan
    modes commute with every S(s).
    """
    results = []

    # contraction route at a generic vertex exponent t
    tctx = ParameterContext(("nu", "chi", "t"))
    tparams = AffineParams(tctx)
    tnu, t, two = tparams.nu, tctx.param("t"), tctx.scalar(2)
    beta_t = FieldExpr.field(tctx, "beta", 0)
    vertex_t = FieldExpr.vertex(tctx, t)
    p_vertex_t = FieldExpr.field(tctx, "p", 0) * vertex_t
    dressed = QQ(-1) * (beta_t * vertex_t)

    ope = wick_ope(wakimoto_current("F", tparams), dressed)
    expected2 = (QQ(-1) * (two * t * tnu + tparams.level)) * vertex_t
    expected1 = ((two - two * t * tnu) * (FieldExpr.field(tctx, "gamma", 0) * (beta_t * vertex_t))
                 + tnu * p_vertex_t)
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

    h_ope = wick_ope(wakimoto_current("H", tparams), dressed)
    coeff = two - two * t * tnu
    at_screen = two - two * (tctx.one() / tnu) * tnu
    results.append(
        passed(
            "screen-exponent-unique",
            "the Cartan current leaves residue (2 - 2 t nu) times the "
            "dressed factor, which vanishes exactly at the screening "
            "exponent 1/nu",
            h_ope.max_order() <= 1
            and h_ope.pole(1) == coeff * dressed
            and wick_ope(wakimoto_current("E", tparams), dressed).is_regular()
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
            vertex_t.derivative() == (QQ(-1) * t) * p_vertex_t,
            "",
        )
    )

    # at the screening exponent, over (nu, chi)
    params = AffineParams.generic()
    ctx, nu = params.ctx, params.nu
    fam = ScreeningCochains(screening_ops(params), 1)
    data, source = fam.data, fam.source
    act_src, act_tgt = fam.act_src, fam.act_tgt
    beta = FieldExpr.field(ctx, "beta", 0)
    p = FieldExpr.field(ctx, "p", 0)
    f_expr = act_src.field("F")
    g = data.image("F")
    ope_f = wick_ope(f_expr, data.screen)
    poles_hold = (
        ope_f.max_order() == 2
        and ope_f.pole(2) == g
        and ope_f.pole(1) == g.derivative()
    )
    results.append(
        passed(
            "screen-collapse",
            "at the screening exponent the singular part collapses to the "
            "companion field and its derivative",
            poles_hold and g.derivative() == nu * (p * FieldExpr.vertex(ctx, ctx.one() / nu)),
            ope_f.render(),
        )
    )

    wrong = QQ(-1) * (beta * FieldExpr.vertex(ctx, ctx.scalar(2) / nu))
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

    results.append(
        passed(
            "screen-ope-poles",
            "the lowering current against the screening current produces "
            "the companion field and its derivative",
            poles_hold,
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

    tau = fam.connection.kappa[0]
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


# -- bracket trees: reduction, mode application and the companion rule ----------------


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


# -- screened current brackets and descent --------------------------------------------


def _companion_residue_defect(opes: dict, data: ScreeningData, x: str, y: str) -> FieldExpr:
    """Antisymmetrized companion residue of (x, y) minus the companion of [x, y]."""
    expected = FieldExpr.zero(data.ctx)
    for coeff, z in _BRACKET_TABLE.get((x, y), ()):
        expected = expected + coeff * data.image(z)
    return opes[(x, y)].pole(1) - opes[(y, x)].pole(1) - expected


def verify_screened_current_brackets(mode_max: int = 2) -> list:
    """Companion-field products and brackets, and descent of the companion family.

    Every current against a companion field has at most a simple pole, the
    antisymmetrized residue is the companion field of the bracket, and the
    mode transcription holds including the central term (whose companion
    image is zero).  On bracket trees [W1, W2] over the loop generators,
    [W1, S(red W2)] - [W2, S(red W1)], built from nested mode commutators,
    equals the companion family of the reduced bracket: symbolically in
    (nu, chi), then at five rational chi values plus one integral chi.

    One symbolic one-slot family and one table of the nine current-companion
    products feed every other check.  Each ordered pair gets one verdict
    (pole order at most one, residue defect zero): ``screened-pole-shape``
    reads the first, ``screened-bracket-ope`` the second, and
    ``descent-conjecture-evidence`` both, as evidence for the conjectural
    generic-level statement (conjecture — evidence only).  Both controls,
    ``screened-wrong-structure`` and ``descent-wrong-reduction``, read one
    defect: [H<0>, S(F<0>)](0) on the vacuum against the companion of [H, F]
    with the structure constant flipped from -2 to +2.
    """
    params = AffineParams.generic()
    ctx = params.ctx
    fam = ScreeningCochains(screening_ops(params), 1)
    data = fam.data
    vac = fam.source.vacuum()
    probes = [vac, _unit(fam.source, [("as", -1)])]
    results = []

    g = data.image("F")
    gamma_g = FieldExpr.field(ctx, "gamma", 0) * g
    opes = {
        (x, y): wick_ope(wakimoto_current(x, params), data.image(y))
        for x, y in _ORDERED_PAIRS
    }
    verdicts = []
    for x, y in _ORDERED_PAIRS:
        defect = _companion_residue_defect(opes, data, x, y)
        verdicts.append((x, y, opes[(x, y)].max_order() <= 1, defect.is_zero(), defect))

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
                verdicts,
                lambda x, y, simple, closes, defect: simple,
                lambda x, y, simple, closes, defect: "%s against image of %s" % (x, y),
            ),
        )
    )
    results.append(
        passed(
            "screened-bracket-ope",
            "antisymmetrized companion residues realize the bracket's "
            "companion field",
            *first_failure(
                verdicts,
                lambda x, y, simple, closes, defect: closes,
                lambda x, y, simple, closes, defect: "(%s,%s): %s" % (x, y, defect.render()),
            ),
        )
    )

    def descent_holds(fam, word, s, vec):
        return _descent_defect(fam, word, s, vec).is_zero()

    def descent_witness(fam, word, s, vec):
        return "word %s at s=%d on %s" % (_word_render(word), s, _fmt(vec))

    # mode route including central pairs
    grid = [(x, n, y, m)
            for x in _GENERATORS for y in _GENERATORS
            for n in range(-mode_max, mode_max + 1)
            for m in range(-mode_max, mode_max + 1)]
    grid += [("E", 3, "F", -3), ("H", 3, "H", -3), ("F", 4, "E", -4)]
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
                lambda x, n, y, m, s, vec: descent_holds(
                    fam, ("br", ("gen", x, n), ("gen", y, m)), s, vec
                ),
                lambda x, n, y, m, s, vec: (
                    "[%s<%d>, S(%s)] - [%s<%d>, S(%s)] at s=%d on %s"
                    % (x, n, y, y, m, x, s, _fmt(vec))
                ),
            ),
        )
    )

    f0 = LoopElement.basis(ctx, "F", 0)
    commuted = _companion_commutator(fam, ("gen", "H", 0), f0, 0, vac)
    wrong = commuted - QQ(2) * data.loop_image_coeff(f0, 0, vac)
    results.append(
        control(
            "screened-wrong-structure",
            "flipping the Cartan-lowering structure constant must leave "
            "a visible defect",
            broke=not wrong.is_zero(),
            witness=_fmt(wrong),
        )
    )

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
    results.append(
        passed(
            "descent-tree-pairs",
            "inductive companion rule on %d bracket trees matches the "
            "reduced seeds symbolically in (nu, chi)" % len(word_pairs),
            *first_failure(
                ((fam, word, s, vec) for word in word_pairs for s in (-1, 0, 1) for vec in probes),
                descent_holds,
                descent_witness,
            ),
        )
    )

    def specialized(chi):
        spec = ScreeningCochains(screening_ops(AffineParams(ParameterContext(("nu",)), chi=chi)), 1)
        return ((chi, spec, w, s, spec.source.vacuum()) for w in word_pairs[:4] for s in (0, 1))

    chis = [QQ(7, 3), QQ(-5, 2), QQ(13, 7), QQ(3, 5), QQ(-9, 4), QQ(2)]
    results.append(
        passed(
            "descent-specializations",
            "descent persists at five fixed non-integral weight labels "
            "plus one integral label",
            *first_failure(
                itertools.chain.from_iterable(map(specialized, chis)),
                lambda chi, *case: descent_holds(*case),
                lambda chi, *case: "chi=%s: %s" % (chi, descent_witness(*case)),
            ),
        )
    )

    results.append(
        passed(
            "descent-conjecture-evidence",
            "antisymmetrized residue identity for the generic-level "
            "statement holds at rank one (conjecture — evidence only)",
            *first_failure(
                verdicts,
                lambda x, y, simple, closes, defect: simple and closes,
                lambda x, y, simple, closes, defect: "(%s,%s)" % (x, y),
            ),
        )
    )
    results.append(
        control(
            "descent-wrong-reduction",
            "mis-reducing the Cartan-lowering bracket must leave a "
            "visible defect",
            broke=not wrong.is_zero(),
            witness=_fmt(wrong),
        )
    )
    return results


# -- multi-slot screening cocycles ----------------------------------------------------


class ScreeningCochains(VertexCochains):
    """Total cocycle rows for multi-slot screening products.

    The source is ``wakimoto_space(data.params)`` and the target its
    translate by ``slots`` label shifts, each with its ``CurrentAction``
    (``act_src``, ``act_tgt``); the one-slot family is the module and its
    screened partner for the single-screening batteries too.  The connection
    has twist -chi/nu^2 at each puncture and pair weight 2/nu^2.

    The top form of the local system is the joint normal-ordered product of
    ``slots`` screening vertices V[label_shift](z_q) dz_q on u (``unit_top``
    per unit monomial); the depth-a component contracts a Witt elements into it
    (``VertexCochains.read_top``, with its position signs and parity twist).
    Each loop element maps to sum c e_{n-1} over its F<n> terms, since
    contracting dz_q with e_{n-1} = -z^n d/dz substitutes the companion of
    F<n> (a multiple of the same vertex) into slot q; the raising and Cartan
    generators have no companion, so data with a nonzero E or H image is
    rejected, as is an F image that is not a multiple of the vertex.  The
    slots that keep dz then take the charged prefactor -beta(z_q) of the
    screening current, and the substituted ones the scalar of the companion
    image.  ``window_halfwidth`` is the degree cap: every component is exact
    on the total degrees through it.  ``mode_bound`` refuses a loop shift n
    that reads the vertex more than ``mode_bound`` exponents past what the
    charged prefactor reads, by the energy bound E of the whole vector u: it
    raises "window exceeded".  Rows of the total differential combine the
    Koszul differential of the current action with the pair-cleared twisted
    de Rham differential.  At integral exponents ``TotalComplex.residue``
    reads an intertwiner of the current action off the top component.
    """

    def __init__(
        self,
        data: ScreeningData,
        slots: int,
        window_halfwidth: int = 3,
        include_pairs: bool = True,
        mode_bound: int = 2,
    ):
        self.data = data
        self.mode_bound = mode_bound
        super().__init__(wakimoto_space(data.params), data.label_shift, slots, window_halfwidth,
                         include_pairs, functools.partial(CurrentAction, data.params))
        self._image_scale = self._vertex_multiple(data.image("F"))
        if any(not expr.is_zero() for name, expr in data.images.items() if name != "F"):
            raise ValueError("cocycle assembly needs zero E and H companion images")

    def _vertex_multiple(self, expr: FieldExpr) -> ParamScalar:
        """The scalar c with expr = c * V[label_shift]; rejects anything else."""
        terms = [(key, c) for key, c in expr.terms.items() if not c.is_zero()]
        if len(terms) == 1:
            (mu, factors), coeff = terms[0]
            if not factors and mu is not None and (mu - self.mu).is_zero():
                return coeff
        raise ValueError(
            "cocycle assembly needs companion images proportional to the screening vertex"
        )

    # -- components -------------------------------------------------------------

    def _witt(self, x: LoopElement) -> WittElement:
        """sum c e_{n-1} over the F<n> terms of x, with Fraction c when rational."""
        return WittElement({
            key[1] - 1: c.as_fraction() if c.is_rational() else c
            for key, c in x.terms.items()
            if key != "c" and key[0] == "F"
        })

    def component(self, xs: Sequence, u: FockVector) -> LaurentForm:
        """``read_top`` on scale * u, which carries the sign and image scale, with reach
        (slots - a)(E + 1); then -beta(z_q) on each slot that keeps dz, and the cut."""
        fields = [self._witt(x) for x in xs]
        a = len(fields)
        bound = u.energy_bound()
        hi = self.window[1]
        shift = min((n for f in fields for n in f.coeffs), default=-1) + 1
        if shift < -(bound + 1 + self.mode_bound):
            raise ValueError("window exceeded: loop shift %d reads the vertex past the "
                             "mode bound" % shift)
        scale = QQ(-1) ** (self.slots - a) * self._image_scale ** a
        omega = self.read_top(fields, scale * u, (self.slots - a) * (bound + 1))
        # beta(z_q) = sum_m a_m z_q^(-m-1) on every slot that keeps dz: a_m with
        # m > E kills u, since its partner as_(-m) comes from u alone, and below
        # d - 1 - hi - later the later slots cannot bring degree d to hi
        terms: dict = {}
        for (subset, exps), value in omega.terms.items():
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
                    terms[key] = terms[key] + w if key in terms else w
        return LaurentForm(self.slots, terms)

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
            "the degree range",
            (not top.is_zero()) and (not comp.is_zero()),
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
    rows += [
        [
            LoopElement.basis(ctx, "F", 1),
            LoopElement.basis(ctx, "F", 0),
            LoopElement.basis(ctx, "F", -1),
            LoopElement.basis(ctx, last, n),
        ]
        for last, n in (("F", 2), ("H", 0))
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
