"""Exact Virasoro layer over rank-one Fock modules.

Builds the deformed quadratic stress tensor as exact mode operators,
normal-ordered products of label-shifting exponential fields as windowed
Laurent forms with module-vector values, and the contraction-assembled
cochain family of weight-one screening currents.  At integral exponents the
family's ``residue`` maps its Fock space to the label-shifted ``target`` and
commutes with every stress mode.

Everything is computed over Q(params): annihilation is bounded by the
source block and creation by the target block, so every verification below
is an exact zero test with no truncation error.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as QQ
from typing import Sequence

from .checks import _fmt, control, first_failure, passed
from .fields import (
    FieldExpr,
    apply_field_coeff,
    apply_vertex,
    stress_tensor,
    vertex_annihilation_coeff,
    vertex_creation_coeff,
    wick_ope,
)
from .fock import (
    FockSpace,
    FockVector,
    ModeOperator,
    OscSpec,
    osc_apply,
)
from .forms import (
    Connection,
    LaurentForm,
    TotalComplex,
    WittElement,
    clear_pairs,
    cleared_d,
    contraction_cochain,
)
from .scalars import ParameterContext, ParamScalar

__all__ = [
    "central_charge",
    "virasoro_apply",
    "virasoro_mode",
    "scalar_binomial",
    "normal_multi_vertex",
    "multi_vertex_form",
    "multi_vertex_transport_defect",
    "VertexScreeningCochains",
    "verify_virasoro",
    "check_L_vertex",
    "product_formula_check",
    "check_multi_vertex_products",
    "check_multi_vertex_transport",
    "screening_cochain_checks",
    "ff_intertwiner_checks",
]


# ---------------------------------------------------------------------------
# the deformed central charge


def central_charge(ctx: ParameterContext, alpha0) -> ParamScalar:
    """Central charge 1 - 24*alpha0^2 of the deformed stress tensor."""
    a = ctx.scalar(alpha0)
    return ctx.one() - QQ(24) * (a * a)


# ---------------------------------------------------------------------------
# the stress tensor as exact oscillator sums


def virasoro_apply(n: int, alpha0, vec: FockVector) -> FockVector:
    """Apply the stress mode L_n = (1/4) sum_{i+j=n} :b_i b_j: - alpha0 (n+1) b_n.

    The quadratic sum is finite on any vector: an annihilation index above
    the energy bound kills every term, and paired creation indices are pinned
    by i + j = n.  Exact for symbolic alpha0 and module label alike.
    """
    space = vec.space
    ctx = space.ctx
    out = space.zero()
    if vec.is_zero():
        return out
    alpha0 = ctx.scalar(alpha0)
    top = vec.energy_bound()
    for j in range(-((-n) // 2), top + 1):
        i = n - j
        t = osc_apply(("b", j), vec)
        if t.is_zero():
            continue
        t = osc_apply(("b", i), t)
        if t.is_zero():
            continue
        out = out + (QQ(1, 4) if i == j else QQ(1, 2)) * t
    lin = osc_apply(("b", n), vec)
    if not lin.is_zero():
        out = out - (QQ(n + 1) * alpha0) * lin
    return out


def virasoro_mode(n: int, alpha0, space: FockSpace) -> ModeOperator:
    """The stress mode L_n as a ModeOperator on ``space``."""
    return ModeOperator(
        lambda v: virasoro_apply(n, alpha0, v), space, space, energy_shift=-n
    )


# ---------------------------------------------------------------------------
# scalar series helpers


def scalar_binomial(ctx: ParameterContext, gamma, k: int) -> ParamScalar:
    """Generalized binomial coefficient C(gamma, k) with symbolic top."""
    g = ctx.scalar(gamma)
    out = ctx.one()
    for i in range(k):
        out = QQ(1, i + 1) * (out * (g - ctx.scalar(i)))
    return out


def _commutation_coeffs(ctx: ParameterContext, gamma, order: int) -> list:
    """Coefficients of (1 - u)^gamma = sum c_k u^k up to the given order."""
    return [
        QQ((-1) ** k) * scalar_binomial(ctx, gamma, k) for k in range(order + 1)
    ]


def _exp_series_coeffs(ctx: ParameterContext, gamma, order: int) -> list:
    """Coefficients of exp(-gamma * sum_{n>=1} u^n / n) up to the given order.

    Uses the first-order recurrence n*g_n = sum_k k*f_k*g_{n-k} for
    g = exp(f), f_k = -gamma/k.
    """
    g = ctx.scalar(gamma)
    coeffs = [ctx.one()]
    for n in range(1, order + 1):
        acc = ctx.zero()
        for k in range(1, n + 1):
            # k * f_k = -gamma
            acc = acc + (-g) * coeffs[n - k]
        coeffs.append(QQ(1, n) * acc)
    return coeffs


# ---------------------------------------------------------------------------
# normal-ordered multi-point vertex products


def normal_multi_vertex(mus: Sequence, vec: FockVector, window: Sequence) -> LaurentForm:
    """Exact coefficient family of the normal-ordered product of vertex fields.

    Returns a function-degree-zero Laurent form in len(mus) variables whose
    value at exponents (e_1, ..., e_p) is the normal-ordered product
    coefficient applied to ``vec``: all annihilation halves act first
    (jointly bounded by the source energy), then the single label shift by
    sum(mus), then the creation halves (pinned per slot by the window).
    Every value inside the window is exact.
    """
    space = vec.space
    ctx = space.ctx
    mus = [ctx.scalar(m) for m in mus]
    p = len(mus)
    if p == 0:
        raise ValueError("need at least one vertex slot")
    window = tuple((int(lo), int(hi)) for lo, hi in window)
    if len(window) != p:
        raise ValueError("window needs one (lo, hi) pair per slot")
    for lo, hi in window:
        if lo > hi:
            raise ValueError("empty window slot")
    total = ctx.zero()
    for m in mus:
        total = total + m
    target = space.shifted(total)
    terms: dict = {}

    def create(i: int, cur: FockVector, downs: tuple, exps: tuple):
        if i == p:
            key = ((), exps)
            terms[key] = terms[key] + cur if key in terms else cur
            return
        lo, hi = window[i]
        d = downs[i]
        for amount in range(max(0, lo + d), hi + d + 1):
            raised = vertex_creation_coeff(mus[i], amount, cur)
            create(i + 1, raised, downs, exps + (amount - d,))

    def annihilate(i: int, cur: FockVector, downs: tuple):
        if i == p:
            create(0, FockVector(target, cur.terms), downs, ())
            return
        for d in range(cur.energy_bound() + 1):
            low = vertex_annihilation_coeff(mus[i], d, cur)
            if not low.is_zero():
                annihilate(i + 1, low, downs + (d,))

    annihilate(0, vec, ())
    return LaurentForm(p, terms, window)


def multi_vertex_form(mus: Sequence, vec: FockVector, window: Sequence) -> LaurentForm:
    """The normal-ordered product as a top-degree form (dz at every slot)."""
    base = normal_multi_vertex(mus, vec, window)
    full = tuple(range(len(base.window)))
    return LaurentForm(
        base.nvars,
        {(full, exps): v for (_, exps), v in base.terms.items()},
        base.window,
    )


def _entry(form: LaurentForm, exps: tuple, zero: FockVector) -> FockVector:
    got = form.terms.get(((), tuple(exps)))
    return zero if got is None else got


def _telescoped_quotient(n: int) -> list:
    """(z_i^(n+1) - z_j^(n+1))/(z_i - z_j) as [(coeff, a, b)] monomials z_i^a z_j^b."""
    if n >= 0:
        return [(1, s, n - s) for s in range(n + 1)]
    m = -(n + 1)
    return [(-1, s - m, -1 - s) for s in range(m)]


def multi_vertex_transport_defect(
    n: int,
    mus: Sequence,
    alpha0,
    vec: FockVector,
    window: Sequence,
    weight_shift: int = 0,
) -> LaurentForm:
    """Commutator of L_n with the normal product minus its transport operator.

    The transport operator is sum_i (z_i^(n+1) d_i + (h_i (n+1) + pairing *
    alpha * mu_i) z_i^n) plus the pair terms sum_{i<j} pairing * mu_i * mu_j
    * (z_i^(n+1) - z_j^(n+1))/(z_i - z_j), with h_i the conformal weight of
    the i-th exponential factor.  ``weight_shift`` perturbs every h_i and is
    used only by negative controls.
    """
    space = vec.space
    ctx = space.ctx
    alpha = space.alpha
    alpha0 = ctx.scalar(alpha0)
    mus = [ctx.scalar(m) for m in mus]
    pairing = space.spec.pairing
    M = normal_multi_vertex(mus, vec, window)
    lhs = M.map_values(lambda v: virasoro_apply(n, alpha0, v)) - normal_multi_vertex(
        mus, virasoro_apply(n, alpha0, vec), window
    )
    rhs = LaurentForm(M.nvars, {}, M.window)
    for i, mu in enumerate(mus):
        rhs = rhs + M.deriv(i).shift(i, n + 1)
        h = mu * mu - QQ(2) * (alpha0 * mu) + ctx.scalar(weight_shift)
        cf = QQ(n + 1) * h + pairing * (alpha * mu)
        rhs = rhs + cf * M.shift(i, n)
        for j in range(i + 1, len(mus)):
            pair = pairing * (mu * mus[j])
            for c, a, b in _telescoped_quotient(n):
                rhs = rhs + (QQ(c) * pair) * M.shift(i, a).shift(j, b)
    return lhs - rhs


# ---------------------------------------------------------------------------
# verification batteries


def verify_virasoro(mode_max: int = 5, energy_max: int = 6) -> list:
    """Both routes to the Virasoro relations, with symbolic label and charge."""
    ctx = ParameterContext(("alpha", "alpha0"))
    alpha = ctx.param("alpha")
    alpha0 = ctx.param("alpha0")
    space = FockSpace(OscSpec(ctx), alpha)
    c = central_charge(ctx, alpha0)
    results = []

    # singular part of the stress-stress product, symbolic background charge
    T = stress_tensor(ctx, alpha0)
    ope = wick_ope(T, T)
    ok = (
        ope.orders() == [1, 2, 4]
        and ope.pole(4) == FieldExpr.scalar(ctx, QQ(1, 2) * c)
        and ope.pole(2) == QQ(2) * T
        and ope.pole(1) == T.derivative()
    )
    results.append(
        passed(
            "stress-ope",
            "stress-stress product has singular part c/2, 2T, T' at orders 4,2,1",
            ok,
            "" if ok else ope.render(),
        )
    )

    # the two implementations of L_n agree (field coefficients vs direct sums)
    basis = []
    for e in range(energy_max + 1):
        for mon in space.block_basis(e):
            basis.append(FockVector(space, {mon: ctx.one()}))
    light = [(idx, v) for idx, v in enumerate(basis) if v.energy_bound() <= 3]
    results.append(
        passed(
            "stress-mode-cross",
            "direct oscillator sums for L_n match the stress-field coefficients",
            *first_failure(
                ((nn, v) for nn in range(-3, 4) for _, v in light),
                lambda nn, v: virasoro_apply(nn, alpha0, v)
                == apply_field_coeff(T, -nn - 2, v),
                lambda nn, v: "n=%d on %s" % (nn, _fmt(v)),
            ),
        )
    )

    # mode-route bracket relations on all blocks up to energy_max
    images: dict = {}

    def img(k: int, idx: int) -> FockVector:
        key = (k, idx)
        got = images.get(key)
        if got is None:
            got = virasoro_apply(k, alpha0, basis[idx])
            images[key] = got
        return got

    def bracket_holds(n, m, idx, v):
        lhs = virasoro_apply(n, alpha0, img(m, idx)) - virasoro_apply(
            m, alpha0, img(n, idx)
        )
        rhs = QQ(n - m) * img(n + m, idx)
        if n + m == 0:
            rhs = rhs + (QQ(n**3 - n, 12) * c) * v
        return lhs == rhs

    mode_pairs = [
        (n, m)
        for n in range(-mode_max, mode_max + 1)
        for m in range(n + 1, mode_max + 1)
    ]
    results.append(
        passed(
            "virasoro-bracket-mode",
            "[L_n, L_m] = (n-m) L_(n+m) + (n^3-n)/12 c on every block, "
            "%d mode pairs through energy %d" % (len(mode_pairs), energy_max),
            *first_failure(
                ((n, m, idx, v) for n, m in mode_pairs for idx, v in enumerate(basis)),
                bracket_holds,
                lambda n, m, idx, v: "[L_%d, L_%d] on %s" % (n, m, _fmt(v)),
            ),
        )
    )

    # oscillator-stress commutator
    def heisenberg_holds(k, m, idx, v):
        lhs = osc_apply(("b", k), img(m, idx)) - virasoro_apply(
            m, alpha0, osc_apply(("b", k), v)
        )
        rhs = QQ(k) * osc_apply(("b", k + m), v)
        if k + m == 0:
            rhs = rhs + (QQ(2 * k * (k - 1)) * alpha0) * v
        return lhs == rhs

    results.append(
        passed(
            "heisenberg-stress",
            "[b_k, L_m] = k b_(k+m) + 2k(k-1) alpha0 delta_(k+m,0)",
            *first_failure(
                (
                    (k, m, idx, v)
                    for k in range(-4, 5)
                    for m in range(-4, 5)
                    for idx, v in light
                ),
                heisenberg_holds,
                lambda k, m, idx, v: "[b_%d, L_%d] on %s" % (k, m, _fmt(v)),
            ),
        )
    )

    # highest-vector eigenvalues
    vac = space.vacuum()
    h = alpha * alpha - QQ(2) * (alpha0 * alpha)
    ok = virasoro_apply(0, alpha0, vac) == h * vac and all(
        virasoro_apply(nn, alpha0, vac).is_zero() for nn in range(1, mode_max + 1)
    )
    results.append(
        passed(
            "vacuum-weight",
            "highest vector has L_0 eigenvalue alpha^2 - 2 alpha0 alpha and "
            "is killed by positive modes",
            ok,
        )
    )

    # drop the background-charge term but keep the deformed central charge
    zero0 = ctx.zero()
    lhs = virasoro_apply(2, zero0, virasoro_apply(-2, zero0, vac)) - virasoro_apply(
        -2, zero0, virasoro_apply(2, zero0, vac)
    )
    rhs = QQ(4) * virasoro_apply(0, zero0, vac) + (QQ(1, 2) * c) * vac
    broke = lhs != rhs
    results.append(
        control(
            "virasoro-drop-background",
            "dropping the linear background term breaks the central term",
            broke,
            "defect %s" % _fmt(lhs - rhs),
        )
    )
    return results


def check_L_vertex(mode_max: int = 5) -> list:
    """Transport of exponential-field modes by the stress modes, fully symbolic."""
    ctx = ParameterContext(("alpha", "alpha0", "b"))
    alpha = ctx.param("alpha")
    alpha0 = ctx.param("alpha0")
    beta = ctx.param("b")
    space = FockSpace(OscSpec(ctx), alpha)
    vac = space.vacuum()
    probes = [
        vac,
        osc_apply(("b", -1), vac),
        osc_apply(("b", -2), vac),
        osc_apply(("b", -1), osc_apply(("b", -1), vac)),
    ]
    h = beta * beta - QQ(2) * (alpha0 * beta)
    twist = space.spec.pairing * (alpha * beta)
    results = []

    def transport_holds(n, m, u):
        coeff = QQ(n + 1) * h + twist - ctx.scalar(n + m)
        lhs = virasoro_apply(n, alpha0, apply_vertex(beta, -m, u)) - apply_vertex(
            beta, -m, virasoro_apply(n, alpha0, u)
        )
        return lhs == coeff * apply_vertex(beta, -(n + m), u)

    mode_pairs = [(n, m) for n in range(-mode_max, mode_max + 1) for m in range(-2, 3)]
    results.append(
        passed(
            "vertex-transport",
            "[L_n, V_m] = ((n+1) h(beta) + pairing*alpha*beta - (n+m)) V_(n+m), "
            "%d symbolic mode pairs" % len(mode_pairs),
            *first_failure(
                ((n, m, u) for n, m in mode_pairs for u in probes),
                transport_holds,
                lambda n, m, u: "(n, m) = (%d, %d) on %s" % (n, m, _fmt(u)),
            ),
        )
    )

    def heisenberg_holds(k, m, u):
        lhs = osc_apply(("b", k), apply_vertex(beta, -m, u)) - apply_vertex(
            beta, -m, osc_apply(("b", k), u)
        )
        return lhs == (space.spec.pairing * beta) * apply_vertex(beta, -(k + m), u)

    results.append(
        passed(
            "heisenberg-vertex",
            "[b_k, V_m] = pairing*beta V_(k+m) for the exponential field",
            *first_failure(
                ((k, m, u) for k in range(-4, 5) for m in range(-2, 3) for u in probes[:2]),
                heisenberg_holds,
                lambda k, m, u: "(k, m) = (%d, %d)" % (k, m),
            ),
        )
    )

    wrong = alpha0 + ctx.one()
    n, m = 1, -1
    coeff = QQ(n + 1) * h + twist - ctx.scalar(n + m)
    lhs = virasoro_apply(n, wrong, apply_vertex(beta, -m, vac)) - apply_vertex(
        beta, -m, virasoro_apply(n, wrong, vac)
    )
    rhs = coeff * apply_vertex(beta, -(n + m), vac)
    results.append(
        control(
            "vertex-transport-wrong-charge",
            "shifting the background charge in L_n only breaks the transport",
            lhs != rhs,
        )
    )
    return results


def _two_slot_cases(b1, b2, probes, window):
    """(u, E, normal product, e1, e2) for |e1|, |e2| <= 2 on each probe.

    ``window(E)`` gives the product's window for a probe of energy E; each
    product is built once, when its probe is reached.
    """
    for u in probes:
        E = u.energy_bound()
        M = normal_multi_vertex([b1, b2], u, window(E))
        for e1 in range(-2, 3):
            for e2 in range(-2, 3):
                yield u, E, M, e1, e2


def product_formula_check(order_max: int = 6) -> list:
    """Commutation of half vertices and factorization of the full product."""
    ctx = ParameterContext(("alpha", "b1", "b2"))
    alpha = ctx.param("alpha")
    b1 = ctx.param("b1")
    b2 = ctx.param("b2")
    space = FockSpace(OscSpec(ctx), alpha)
    vac = space.vacuum()
    gamma = space.spec.pairing * (b1 * b2)
    results = []

    # the commutation factor's two series presentations agree
    depth = order_max + 4
    binomial = _commutation_coeffs(ctx, gamma, depth)
    series = _exp_series_coeffs(ctx, gamma, depth)
    ok = binomial == series
    results.append(
        passed(
            "commutation-series",
            "(1-u)^(pairing b1 b2) binomials match exp(-pairing b1 b2 sum u^n/n)",
            ok,
        )
    )

    # bi-ordered commutation of the annihilation and creation halves
    probes = [
        vac,
        osc_apply(("b", -1), vac),
        osc_apply(("b", -2), osc_apply(("b", -1), vac)),
    ]

    def commutation_holds(a, bb, u):
        lhs = vertex_annihilation_coeff(b1, a, vertex_creation_coeff(b2, bb, u))
        rhs = space.zero()
        for k in range(min(a, bb) + 1):
            rhs = rhs + binomial[k] * vertex_creation_coeff(
                b2, bb - k, vertex_annihilation_coeff(b1, a - k, u)
            )
        return lhs == rhs

    orders = range(order_max + 1)
    results.append(
        passed(
            "half-vertex-commutation",
            "annihilation half past creation half picks up (1-z2/z1)^(pairing b1 b2), "
            "bi-order %d" % order_max,
            *first_failure(
                ((a, bb, u) for a in orders for bb in orders for u in probes),
                commutation_holds,
                lambda a, bb, u: "orders (%d, %d) on %s" % (a, bb, _fmt(u)),
            ),
        )
    )

    # factorization of the composed full vertices against the normal product
    tgt_zero = space.shifted(b1 + b2).zero()

    def factorization_holds(u, E, M, e1, e2):
        lhs = apply_vertex(b1, e1, apply_vertex(b2, e2, u))
        rhs = tgt_zero
        for k in range(e2 + E + 1):
            rhs = rhs + binomial[k] * _entry(M, (e1 + k, e2 - k), tgt_zero)
        return lhs == rhs

    results.append(
        passed(
            "vertex-factorization",
            "composed vertices equal the commutation factor times the normal product",
            *first_failure(
                _two_slot_cases(b1, b2, probes[:2], lambda E: ((-2, 4 + E), (-E, 2))),
                factorization_holds,
                lambda u, E, M, e1, e2: "exponents (%d, %d) on %s" % (e1, e2, _fmt(u)),
            ),
        )
    )

    # forget the commutation factor entirely
    u = vac
    window = ((-2, 4), (0, 2))
    M = normal_multi_vertex([b1, b2], u, window)
    lhs = apply_vertex(b1, -1, apply_vertex(b2, 1, u))
    naive = _entry(M, (-1, 1), tgt_zero)
    results.append(
        control(
            "factorization-drop-commutation",
            "omitting the commutation factor breaks the factorization",
            lhs != naive,
        )
    )
    return results


def check_multi_vertex_products() -> list:
    """Iterated vertex products reduce to one symmetric normal product."""
    results = []

    # two slots, symbolic exponents: both orderings against the same product
    ctx = ParameterContext(("alpha", "b1", "b2"))
    alpha = ctx.param("alpha")
    b1 = ctx.param("b1")
    b2 = ctx.param("b2")
    space = FockSpace(OscSpec(ctx), alpha)
    vac = space.vacuum()
    gamma = space.spec.pairing * (b1 * b2)
    coeffs = _commutation_coeffs(ctx, gamma, 8)
    probes = [vac, osc_apply(("b", -1), vac)]
    tgt_zero = space.shifted(b1 + b2).zero()

    def orderings_hold(u, E, M, e1, e2):
        first = apply_vertex(b1, e1, apply_vertex(b2, e2, u))
        red1 = tgt_zero
        for k in range(e2 + E + 1):
            red1 = red1 + coeffs[k] * _entry(M, (e1 + k, e2 - k), tgt_zero)
        second = apply_vertex(b2, e2, apply_vertex(b1, e1, u))
        red2 = tgt_zero
        for k in range(e1 + E + 1):
            red2 = red2 + coeffs[k] * _entry(M, (e1 - k, e2 + k), tgt_zero)
        return first == red1 and second == red2

    results.append(
        passed(
            "two-slot-orderings",
            "both orderings of two vertices reduce to the same normal product "
            "with mirrored commutation factors",
            *first_failure(
                _two_slot_cases(
                    b1, b2, probes, lambda E: ((-2 - E, 4 + E), (-2 - E, 4 + E))
                ),
                orderings_hold,
                lambda u, E, M, e1, e2: "exponents (%d, %d)" % (e1, e2),
            ),
        )
    )

    # leading coefficient on the highest vector
    M0 = normal_multi_vertex([b1, b2], vac, ((0, 0), (0, 0)))
    lead = _entry(M0, (0, 0), tgt_zero)
    ok = lead == space.shifted(b1 + b2).vacuum()
    results.append(
        passed(
            "normal-product-leading",
            "the (0, 0) coefficient on the highest vector is the shifted "
            "highest vector with coefficient one",
            ok,
            "" if ok else _fmt(lead),
        )
    )

    # three slots, rational exponents: triple composition vs triple reduction
    ctx3 = ParameterContext(())
    mus = [ctx3.scalar(QQ(3, 2)), ctx3.scalar(QQ(-1, 2)), ctx3.scalar(QQ(5, 3))]
    space3 = FockSpace(OscSpec(ctx3), ctx3.scalar(QQ(2, 7)))
    vac3 = space3.vacuum()
    pairing = space3.spec.pairing
    c12 = _commutation_coeffs(ctx3, pairing * mus[0] * mus[1], 8)
    c13 = _commutation_coeffs(ctx3, pairing * mus[0] * mus[2], 8)
    c23 = _commutation_coeffs(ctx3, pairing * mus[1] * mus[2], 8)
    window = ((-1, 6), (-1, 4), (-1, 2))
    M3 = normal_multi_vertex(mus, vac3, window)
    tgt_zero3 = space3.shifted(mus[0] + mus[1] + mus[2]).zero()

    def reduction_holds(e1, e2, e3):
        lhs = apply_vertex(
            mus[0], e1, apply_vertex(mus[1], e2, apply_vertex(mus[2], e3, vac3))
        )
        rhs = tgt_zero3
        for k23 in range(max(0, e3) + 1):
            for k13 in range(e3 - k23 + 1):
                for k12 in range(e2 + k23 + 1):
                    c = c12[k12] * c13[k13] * c23[k23]
                    rhs = rhs + c * _entry(
                        M3,
                        (e1 + k12 + k13, e2 - k12 + k23, e3 - k13 - k23),
                        tgt_zero3,
                    )
        return lhs == rhs

    results.append(
        passed(
            "three-slot-reduction",
            "a triple vertex composition reduces through all three pair factors "
            "to the symmetric normal product",
            *first_failure(
                itertools.product(range(-1, 3), repeat=3),
                reduction_holds,
                lambda e1, e2, e3: "exponents (%d, %d, %d)" % (e1, e2, e3),
            ),
        )
    )

    wrong = _entry(M3, (0, 0, 0), tgt_zero3) + _entry(M3, (1, 0, 0), tgt_zero3)
    lhs = apply_vertex(mus[0], 0, apply_vertex(mus[1], 0, apply_vertex(mus[2], 0, vac3)))
    results.append(
        control(
            "three-slot-wrong-reduction",
            "a mismatched reduction pattern fails against the composition",
            lhs != wrong,
        )
    )
    return results


def check_multi_vertex_transport() -> list:
    """Stress transport of normal-ordered multi-vertex products."""
    results = []

    # two slots, all data symbolic
    ctx = ParameterContext(("alpha", "alpha0", "b1", "b2"))
    alpha = ctx.param("alpha")
    alpha0 = ctx.param("alpha0")
    mus = [ctx.param("b1"), ctx.param("b2")]
    space = FockSpace(OscSpec(ctx), alpha)
    vac = space.vacuum()
    probes = [vac, osc_apply(("b", -1), vac)]
    window = ((-4, 4), (-4, 4))
    results.append(
        passed(
            "transport-two-slots",
            "[L_n, :VV:] matches the first-order transport operator with pair "
            "quotients, two symbolic exponents, |n| <= 3",
            *first_failure(
                ((n, u) for n in range(-3, 4) for u in probes),
                lambda n, u: multi_vertex_transport_defect(
                    n, mus, alpha0, u, window
                ).is_zero(),
                lambda n, u: "n=%d on %s" % (n, _fmt(u)),
            ),
        )
    )

    # three slots, rational data
    ctx3 = ParameterContext(())
    mus3 = [QQ(3, 2), QQ(-1, 2), QQ(5, 3)]
    alpha0_3 = QQ(4, 9)
    space3 = FockSpace(OscSpec(ctx3), ctx3.scalar(QQ(2, 7)))
    vac3 = space3.vacuum()
    window3 = ((-3, 3), (-3, 3), (-3, 3))
    results.append(
        passed(
            "transport-three-slots",
            "[L_n, :VVV:] matches the transport operator at three points, "
            "n in {-1, 0, 1}",
            *first_failure(
                ((n,) for n in (-1, 0, 1)),
                lambda n: multi_vertex_transport_defect(
                    n, mus3, alpha0_3, vac3, window3
                ).is_zero(),
                lambda n: "n=%d" % n,
            ),
        )
    )

    defect = multi_vertex_transport_defect(1, mus, alpha0, vac, window, weight_shift=1)
    results.append(
        control(
            "transport-wrong-weight",
            "bumping the conformal weight in the transport operator fails",
            not defect.is_zero(),
        )
    )
    return results


# ---------------------------------------------------------------------------
# contraction-assembled screening cochains


class VertexScreeningCochains(TotalComplex):
    """Cochain family assembled from a p-fold product of screening currents.

    The top component is the normal-ordered product of ``slots`` exponential
    fields with the common screening exponent (conformal weight one, i.e.
    the background charge is (beta^2-1)/(2 beta)), taken as a top-degree
    Laurent form; the depth-a component contracts ``a`` diagonal vector
    fields into it with the parity twist (-1)^(a(a+1)/2).  The de Rham side
    is the log-derivative connection with exponents pairing*alpha*beta at
    each puncture and pair weights pairing*beta^2.  Values live in
    ``target``, the Fock space with label alpha + slots*beta.
    """

    def __init__(
        self,
        ctx: ParameterContext,
        alpha,
        beta,
        slots: int,
        window_halfwidth: int = 4,
        include_pairs: bool = True,
    ):
        if slots < 1:
            raise ValueError("a screening cochain needs at least one slot, got %d" % slots)
        self.ctx = ctx
        self.alpha = ctx.scalar(alpha)
        self.beta = ctx.scalar(beta)
        if self.beta.is_zero():
            raise ValueError("screening exponent beta must be nonzero")
        self.slots = self.depth = slots
        self.alpha0 = (self.beta * self.beta - ctx.one()) / (QQ(2) * self.beta)
        self.space = FockSpace(OscSpec(ctx), self.alpha)
        self.target = self.space.shifted(slots * self.beta)
        pairing = self.space.spec.pairing
        kappa = pairing * (self.alpha * self.beta)
        pair = pairing * (self.beta * self.beta)
        pairs = (
            {(i, j): pair for i in range(slots) for j in range(i + 1, slots)}
            if include_pairs
            else None
        )
        self.connection = Connection([kappa] * slots, pairs)
        self.window = tuple((-window_halfwidth, window_halfwidth) for _ in range(slots))
        self._tops: dict = {}
        self._residues: dict = {}

    # -- building blocks -------------------------------------------------------

    def stress(self, x: WittElement, u: FockVector) -> FockVector:
        """The Virasoro image of u under the element x (linearly extended)."""
        out = u.space.zero()
        for n, c in x.coeffs.items():
            out = out + c * virasoro_apply(n, self.alpha0, u)
        return out

    def top_form(self, u: FockVector) -> LaurentForm:
        key = (u.space, tuple(sorted(u.terms.items())))
        got = self._tops.get(key)
        if got is None:
            got = multi_vertex_form((self.beta,) * self.slots, u, self.window)
            self._tops[key] = got
        return got

    def component(self, xs: Sequence, u: FockVector) -> LaurentForm:
        return contraction_cochain(self.top_form(u), xs)

    # the stress modes act alike on both ends of the cochain
    act_target = act_source = stress

    # -- the verified statements ------------------------------------------------

    def invariance_defect(self, x: WittElement, u: FockVector) -> LaurentForm:
        """Cleared combined action of x on the top component (expected zero).

        The commutator action of the stress modes plus the twisted Lie
        derivative along the diagonal vector field; both sides multiplied by
        the pair-difference product so everything stays Laurent-polynomial.
        """
        omega = self.top_form(u)
        first = omega.map_values(lambda v: self.stress(x, v)) - self.top_form(
            self.stress(x, u)
        )
        lie = cleared_d(omega, self.connection).contract(x) + cleared_d(
            omega.contract(x), self.connection
        )
        return clear_pairs(first, self.connection) + lie

    # bound in the class body: perfbench/tracer.py wraps it via __dict__
    residual = TotalComplex.residual

    # -- residue at integral exponents ------------------------------------------

    def residue_exponents(self) -> tuple:
        """The puncture exponent pairing*alpha*beta and pair exponent pairing*beta^2.

        Both must be integers and the pair exponent nonnegative, so the
        twisted form is single-valued.  The pair exponent is read off beta,
        not the connection, which has no pairs for one slot.
        """
        pairing = self.space.spec.pairing
        kappa = _as_int(pairing * (self.alpha * self.beta), "puncture exponent")
        power = _as_int(pairing * (self.beta * self.beta), "pair exponent")
        if power < 0:
            raise ValueError("non-integral exponent: pair exponent must be >= 0")
        return kappa, power

    def residue(self, u: FockVector) -> FockVector:
        """Iterated residue of the top component on u, in ``target``.

        The coefficient at z^(-1-kappa) in every slot of the product with
        prod_{i<j} (z_i - z_j)^power, read off the normal-ordered product
        through the monomials of the pair factor.  Cached per input vector:
        the intertwining checks ask for the same residue once per stress mode.
        """
        kappa, power = self.residue_exponents()
        key = (u.space, tuple(sorted(u.terms.items())))
        cached = self._residues.get(key)
        if cached is not None:
            return cached
        out = self.target.zero()
        if not u.is_zero():
            e0 = -1 - kappa
            window = ((e0 - power * (self.slots - 1), e0),) * self.slots
            top = normal_multi_vertex((self.beta,) * self.slots, u, window)
            for degs, c in _pair_power_monomials(self.slots, power).items():
                got = top.terms.get(((), tuple(e0 - d for d in degs)))
                if got is not None:
                    out = out + c * got
        self._residues[key] = out
        return out


def screening_cochain_checks() -> list:
    """Invariance and total-cocycle rows of the Feigin-Fuchs cochain family.

    The one- and two-slot rows are symbolic in the label alpha and the
    screening exponent b.  The three-slot rows run at one rational point
    only: alpha = -2/5, beta = 3/2, over the empty parameter context.
    """
    results = []
    ctx = ParameterContext(("alpha", "b"))
    alpha = ctx.param("alpha")
    beta = ctx.param("b")

    witts = [WittElement.basis(n) for n in range(-2, 3)]
    combo = WittElement({-1: QQ(2), 2: QQ(-3)})

    for slots in (1, 2):
        fam = VertexScreeningCochains(ctx, alpha, beta, slots)
        vac = fam.space.vacuum()
        probes = [vac, osc_apply(("b", -1), vac)]

        results.append(
            passed(
                "screening-invariance-%d" % slots,
                "commutator action plus twisted Lie derivative kills the "
                "%d-slot screening product" % slots,
                *first_failure(
                    ((x, u) for x in witts + [combo] for u in probes),
                    lambda x, u: fam.invariance_defect(x, u).is_zero(),
                    lambda x, u: "x=%r on %s" % (x, _fmt(u)),
                ),
            )
        )

        rows = [[x] for x in witts] + [[combo]]
        rows += [
            [WittElement.basis(-1), WittElement.basis(1)],
            [WittElement.basis(0), WittElement.basis(2)],
            [WittElement.basis(-2), WittElement.basis(1)],
            [combo, WittElement.basis(0)],
        ]
        rows += [[WittElement.basis(-1), WittElement.basis(0), WittElement.basis(1)]]
        rows = [xs for xs in rows if len(xs) <= slots + 1]
        results.append(
            passed(
                "screening-cocycle-%d" % slots,
                "every total-differential row of the %d-slot cochain family "
                "vanishes (%d rows, symbolic label and exponent)" % (slots, len(rows)),
                *first_failure(
                    ((xs, u) for xs in rows for u in probes),
                    lambda xs, u: fam.residual(xs, u).is_zero(),
                    lambda xs, u: "depth %d row %r on %s" % (len(xs), xs, _fmt(u)),
                ),
            )
        )

    # three slots at random rational parameters
    ctx3 = ParameterContext(())
    fam3 = VertexScreeningCochains(
        ctx3, QQ(-2, 5), QQ(3, 2), 3, window_halfwidth=3
    )
    vac3 = fam3.space.vacuum()
    rows3 = [
        [WittElement.basis(0)],
        [WittElement.basis(1)],
        [WittElement.basis(-1)],
        [WittElement.basis(-1), WittElement.basis(1)],
        [WittElement.basis(-1), WittElement.basis(0), WittElement.basis(1)],
    ]
    results.append(
        passed(
            "screening-cocycle-3",
            "total-differential rows vanish for three slots at rational "
            "parameters",
            *first_failure(
                ((xs,) for xs in rows3),
                lambda xs: fam3.residual(xs, vac3).is_zero(),
                lambda xs: "depth %d row" % len(xs),
            ),
        )
    )

    broken = VertexScreeningCochains(ctx, alpha, beta, 2, include_pairs=False)
    res = broken.residual([WittElement.basis(1)], broken.space.vacuum())
    results.append(
        control(
            "screening-cocycle-drop-pairs",
            "dropping the pair exponents from the connection breaks the "
            "two-slot cocycle",
            not res.is_zero(),
        )
    )
    return results


# ---------------------------------------------------------------------------
# residue intertwiners at integral exponents


def _as_int(scalar: ParamScalar, what: str) -> int:
    if not scalar.is_rational():
        raise ValueError("non-integral exponent: %s is not a rational constant" % what)
    f = scalar.as_fraction()
    if f.denominator != 1:
        raise ValueError("non-integral exponent: %s = %s" % (what, f))
    return int(f)


def _pair_power_monomials(slots: int, power: int) -> dict:
    """Expansion of prod_{i<j} (z_i - z_j)^power into monomials {degrees: coeff}."""
    terms = {(0,) * slots: QQ(1)}
    for i in range(slots):
        for j in range(i + 1, slots):
            new: dict = {}
            for degs, c in terms.items():
                for k in range(power + 1):
                    c2 = c * QQ(math.comb(power, k) * (-1) ** k)
                    nd = list(degs)
                    nd[i] += power - k
                    nd[j] += k
                    key = tuple(nd)
                    new[key] = new.get(key, QQ(0)) + c2
            terms = {k: v for k, v in new.items() if v}
    return terms


def ff_intertwiner_checks() -> list:
    """Residue intertwiners at integral specializations commute with the stress."""
    ctx = ParameterContext(())
    results = []
    cases = [
        ("one-slot", QQ(-1, 2), QQ(1), 1, 4, 3),
        ("two-slot", QQ(-1), QQ(1), 2, 4, 2),
        ("two-slot-deformed", QQ(-5, 4), QQ(2), 2, 3, 1),
    ]
    for name, alpha, beta, slots, n_max, e_max in cases:
        fam = VertexScreeningCochains(ctx, alpha, beta, slots)
        kappa, power = fam.residue_exponents()
        basis = []
        for e in range(e_max + 1):
            for mon in fam.space.block_basis(e):
                basis.append(FockVector(fam.space, {mon: ctx.one()}))
        ok, witness = first_failure(
            ((n, v) for n in range(-n_max, n_max + 1) for v in basis),
            lambda n, v: fam.intertwining_defect(WittElement.basis(n), v).is_zero(),
            lambda n, v: "n=%d on %s" % (n, _fmt(v)),
        )
        nonzero = any(not fam.residue(v).is_zero() for v in basis)
        results.append(
            passed(
                "residue-intertwiner-%s" % name,
                "residue operator at puncture exponent %d, pair exponent %d "
                "commutes with stress modes |n| <= %d and is nonzero"
                % (kappa, power, n_max),
                ok and nonzero,
                witness if not ok else ("" if nonzero else "operator vanished"),
            )
        )

    # a non-integral exponent must be rejected
    try:
        VertexScreeningCochains(ctx, QQ(1, 3), QQ(1), 1).residue_exponents()
    except ValueError as err:
        caught = "non-integral exponent" in str(err)
    else:
        caught = False
    results.append(
        passed(
            "residue-intertwiner-rejects",
            "a non-integral puncture exponent raises an error",
            caught,
        )
    )

    # breaking the weight-one condition destroys the commutation
    fam = VertexScreeningCochains(ctx, QQ(-1, 2), QQ(1), 1)
    vac = fam.space.vacuum()
    wrong = QQ(1, 5)  # background charge off the screening value
    defect = virasoro_apply(-2, wrong, fam.residue(vac)) - fam.residue(
        virasoro_apply(-2, wrong, vac)
    )
    results.append(
        control(
            "residue-intertwiner-wrong-charge",
            "moving the background charge off the screening value breaks "
            "the commutation",
            not defect.is_zero(),
        )
    )
    return results
