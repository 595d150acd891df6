"""Virasoro layer, vertex products, screening cochains, residue intertwiners.

Every identity is checked over Q(params) by two independent routes where
one exists (field coefficients vs direct oscillator sums, binomial vs
exponential-series commutation factors, hand expansions vs the engine);
the large sweeps live in the verify_* batteries and are asserted all-green
here at their full sizes.
"""

import itertools
import math
from fractions import Fraction

import pytest

from screenops.scalars import ParameterContext
from screenops.fock import FockSpace, FockVector, ModeOperator, OscSpec, osc_apply
from screenops.fields import (
    apply_field_coeff,
    apply_vertex,
    stress_tensor,
    vertex_annihilation_coeff,
    vertex_creation_coeff,
)
from screenops import virasoro
from screenops.forms import (
    WittElement,
    _pair_power_monomials,
    clear_pairs,
    cleared_d,
    residue_functional,
)
from screenops.virasoro import (
    VertexScreeningCochains,
    _commutation_coeffs,
    _exp_series_coeffs,
    _telescoped_quotient,
    central_charge,
    check_L_vertex,
    check_multi_vertex_transport,
    ff_intertwiner_checks,
    multi_vertex_form,
    multi_vertex_transport_defect,
    normal_multi_vertex,
    product_formula_check,
    scalar_binomial,
    screening_cochain_checks,
    verify_virasoro,
    virasoro_apply,
)

from screenops.wakimoto import AffineParams, LoopElement, ScreeningCochains, screening_ops

from oracles import every_value_residual, wakimoto_component_per_unit

QQ = Fraction


@pytest.fixture
def symbolic():
    ctx = ParameterContext(("alpha", "alpha0", "b"))
    space = FockSpace(OscSpec(ctx), ctx.param("alpha"))
    return ctx, space


@pytest.fixture
def rational():
    ctx = ParameterContext(())
    space = FockSpace(OscSpec(ctx), ctx.scalar(QQ(2, 7)))
    return ctx, space


class TestStressModes:
    def test_vacuum_eigenvalue_and_annihilation(self, symbolic):
        ctx, space = symbolic
        alpha, alpha0 = ctx.param("alpha"), ctx.param("alpha0")
        vac = space.vacuum()
        h = alpha * alpha - QQ(2) * (alpha0 * alpha)
        assert virasoro_apply(0, alpha0, vac) == h * vac
        for n in range(1, 5):
            assert virasoro_apply(n, alpha0, vac).is_zero()

    def test_translation_mode_on_vacuum(self, symbolic):
        # L_{-1} v = (1/2) b_0 b_{-1} v = alpha b_{-1} v  (no background term)
        ctx, space = symbolic
        alpha, alpha0 = ctx.param("alpha"), ctx.param("alpha0")
        vac = space.vacuum()
        got = virasoro_apply(-1, alpha0, vac)
        assert got == alpha * osc_apply(("b", -1), vac)

    def test_lowering_mode_on_vacuum(self, symbolic):
        # L_{-2} v = (1/4) b_{-1}^2 v + (alpha + alpha0) b_{-2} v
        ctx, space = symbolic
        alpha, alpha0 = ctx.param("alpha"), ctx.param("alpha0")
        vac = space.vacuum()
        got = virasoro_apply(-2, alpha0, vac)
        want = QQ(1, 4) * osc_apply(("b", -1), osc_apply(("b", -1), vac)) + (
            alpha + alpha0
        ) * osc_apply(("b", -2), vac)
        assert got == want

    def test_matches_field_coefficient_route(self, symbolic):
        ctx, space = symbolic
        alpha0 = ctx.param("alpha0")
        T = stress_tensor(ctx, alpha0)
        vac = space.vacuum()
        probes = [
            vac,
            osc_apply(("b", -1), vac),
            osc_apply(("b", -2), osc_apply(("b", -1), vac)),
        ]
        for n in range(-3, 4):
            for u in probes:
                assert virasoro_apply(n, alpha0, u) == apply_field_coeff(T, -n - 2, u)

    def test_bracket_with_central_term_on_vacuum(self, symbolic):
        ctx, space = symbolic
        alpha0 = ctx.param("alpha0")
        vac = space.vacuum()
        c = central_charge(ctx, alpha0)
        lhs = virasoro_apply(2, alpha0, virasoro_apply(-2, alpha0, vac)) - virasoro_apply(
            -2, alpha0, virasoro_apply(2, alpha0, vac)
        )
        rhs = QQ(4) * virasoro_apply(0, alpha0, vac) + (QQ(1, 2) * c) * vac
        assert lhs == rhs

    def test_heisenberg_commutator_hand_values(self, symbolic):
        ctx, space = symbolic
        alpha0 = ctx.param("alpha0")
        vac = space.vacuum()
        # [b_2, L_{-2}] v = 2 b_0 v + 4 alpha0 v
        lhs = osc_apply(("b", 2), virasoro_apply(-2, alpha0, vac)) - virasoro_apply(
            -2, alpha0, osc_apply(("b", 2), vac)
        )
        want = QQ(2) * osc_apply(("b", 0), vac) + (QQ(4) * alpha0) * vac
        assert lhs == want

    def test_mode_operator_grading(self, rational):
        ctx, space = rational
        L2 = ModeOperator(lambda v: virasoro_apply(2, QQ(1, 3), v), space, space, -2)
        src, tgt, rows = L2.matrix(2, 0)
        assert L2.energy_shift == -2
        assert len(src) == 2 and len(tgt) == 1

    def test_central_charge_specializations(self):
        ctx = ParameterContext(())
        assert central_charge(ctx, 0) == ctx.one()
        assert central_charge(ctx, QQ(1, 2)) == ctx.scalar(-5)


class TestScalarSeries:
    def test_binomial_integer_top(self):
        ctx = ParameterContext(())
        for top in range(7):
            for k in range(9):
                assert scalar_binomial(ctx, top, k) == ctx.scalar(math.comb(top, k))

    def test_binomial_matches_exp_series(self):
        ctx = ParameterContext(("g",))
        g = ctx.param("g")
        assert _commutation_coeffs(ctx, g, 8) == _exp_series_coeffs(ctx, g, 8)

    def test_negative_binomial(self):
        # (1-u)^(-1) = sum u^k: coefficients all one
        ctx = ParameterContext(())
        coeffs = _commutation_coeffs(ctx, -1, 6)
        assert all(c == ctx.one() for c in coeffs)


class TestHalfVertices:
    def test_annihilation_half_on_vacuum(self, symbolic):
        ctx, space = symbolic
        b = ctx.param("b")
        vac = space.vacuum()
        assert vertex_annihilation_coeff(b, 0, vac) == vac
        assert vertex_annihilation_coeff(b, 1, vac).is_zero()
        assert vertex_annihilation_coeff(b, -1, vac).is_zero()

    def test_creation_half_orders(self, symbolic):
        ctx, space = symbolic
        b = ctx.param("b")
        vac = space.vacuum()
        assert vertex_creation_coeff(b, 1, vac) == b * osc_apply(("b", -1), vac)
        want2 = (QQ(1, 2) * (b * b)) * osc_apply(
            ("b", -1), osc_apply(("b", -1), vac)
        ) + (QQ(1, 2) * b) * osc_apply(("b", -2), vac)
        assert vertex_creation_coeff(b, 2, vac) == want2

    def test_annihilation_half_pairs_oscillators(self, symbolic):
        # order-one annihilation on b_{-1} v picks up -b * [b_1, b_{-1}] = -2b
        ctx, space = symbolic
        b = ctx.param("b")
        u = osc_apply(("b", -1), space.vacuum())
        assert vertex_annihilation_coeff(b, 1, u) == (QQ(-2) * b) * space.vacuum()


class TestNormalMultiVertex:
    def test_single_slot_equals_vertex(self, symbolic):
        ctx, space = symbolic
        b = ctx.param("b")
        u = osc_apply(("b", -1), space.vacuum())
        M = normal_multi_vertex([b], u, 2)
        tgt_zero = space.shifted(b).zero()
        for e in range(-2, 3):
            got = M.terms.get(((), (e,)), tgt_zero)
            assert got == apply_vertex(b, e, u)

    def test_slot_exchange_symmetry(self, symbolic):
        ctx, space = symbolic
        alpha0, b = ctx.param("alpha0"), ctx.param("b")
        vac = space.vacuum()
        M12 = normal_multi_vertex([b, alpha0], vac, 2)
        M21 = normal_multi_vertex([alpha0, b], vac, 2)
        for (subset, exps), value in M12.terms.items():
            swapped = M21.terms.get((subset, (exps[1], exps[0])))
            assert swapped is not None and swapped == value

    def test_window_validation(self, symbolic):
        # no term lies below minus the source energy, so a cap below it
        # builds nothing; every degree through the cap is built
        ctx, space = symbolic
        b = ctx.param("b")
        u = osc_apply(("b", -1), space.vacuum())
        assert not normal_multi_vertex([b, b], u, -2).terms
        M = normal_multi_vertex([b, b], u, 1)
        assert {exps for _, exps in M.terms} == {
            (e1, e2) for e1 in range(-1, 3) for e2 in range(-1, 3) if -1 <= e1 + e2 <= 1}
        with pytest.raises(ValueError):
            normal_multi_vertex([], space.vacuum(), 0)

    def test_leading_coefficient_on_vacuum(self, rational):
        ctx, space = rational
        mus = [QQ(1, 2), QQ(3)]
        M = normal_multi_vertex(mus, space.vacuum(), 0)
        tgt = space.shifted(ctx.scalar(QQ(7, 2)))
        assert M.terms[((), (0, 0))] == tgt.vacuum()


class TestTelescopedQuotient:
    @pytest.mark.parametrize("n", range(-4, 4))
    def test_clears_the_difference(self, n):
        zi, zj = QQ(5, 3), QQ(-7, 2)
        total = sum(QQ(c) * zi**a * zj**b for c, a, b in _telescoped_quotient(n))
        assert total * (zi - zj) == zi ** (n + 1) - zj ** (n + 1)

    def test_shapes(self):
        assert _telescoped_quotient(-1) == []
        assert _telescoped_quotient(0) == [(1, 0, 0)]
        assert _telescoped_quotient(1) == [(1, 0, 1), (1, 1, 0)]
        assert _telescoped_quotient(-2) == [(-1, -1, -1)]


class TestTransportDefect:
    def test_zero_for_screening_data(self, rational):
        ctx, space = rational
        defect = multi_vertex_transport_defect(
            -2, [QQ(3, 2), QQ(-1, 2)], QQ(1, 3), space.vacuum(), 3
        )
        assert defect.is_zero()
        # the defect keeps the degrees it is exact on: through min(cap, cap + n)
        for n in (-2, 2):
            wrong = multi_vertex_transport_defect(
                n, [QQ(3, 2), QQ(-1, 2)], QQ(1, 3), space.vacuum(), 3, weight_shift=1
            )
            assert max(sum(exps) for _, exps in wrong.terms) == min(3, 3 + n)

    def test_wrong_weight_is_visible(self, rational):
        ctx, space = rational
        defect = multi_vertex_transport_defect(
            1,
            [QQ(3, 2), QQ(-1, 2)],
            QQ(1, 3),
            space.vacuum(),
            3,
            weight_shift=1,
        )
        assert not defect.is_zero()


class TestScreeningCochains:
    def test_top_row_closes(self):
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-2, 5), QQ(3, 2), 1, window_halfwidth=3)
        assert fam.residual([], fam.space.vacuum()).is_zero()

    def test_weight_one_background_charge(self):
        ctx = ParameterContext(("alpha", "b"))
        fam = VertexScreeningCochains(ctx, ctx.param("alpha"), ctx.param("b"), 2)
        b = fam.mu
        assert b * b - QQ(2) * (fam.alpha0 * b) == ctx.one()

    def test_single_slot_depth_one_row(self):
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-2, 5), QQ(3, 2), 1, window_halfwidth=3)
        vac = fam.space.vacuum()
        for n in (-2, 0, 2):
            assert fam.residual([WittElement.basis(n)], vac).is_zero()

    def test_invariance_negative_mode(self):
        # regression: difference products must shrink the exactness window
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-2, 5), QQ(3, 2), 2, window_halfwidth=3)
        vac = fam.space.vacuum()
        assert fam.invariance_defect(WittElement.basis(-2), vac).is_zero()

    def test_dropping_pairs_breaks_two_slots(self):
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(
            ctx, QQ(-2, 5), QQ(3, 2), 2, window_halfwidth=3, include_pairs=False
        )
        res = fam.residual([WittElement.basis(1)], fam.space.vacuum())
        assert not res.is_zero()

    def test_empty_residual_window_is_rejected(self):
        # regression: a row that compares nothing must not pass.  The vacuum's
        # top form starts at degree 0, and L_-2 vac has energy 2, so its top
        # form starts at -2.  The one-slot row [e_-2] compares the degrees
        # through cap - 1: at cap -1 that is degree -2, where the row
        # vanishes; at cap -2 its components hold terms (L_-2 vac at degree
        # -2) but none at degree -3 or below, so it raises
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-2, 5), QQ(3, 2), 1, window_halfwidth=-1)
        vac = fam.space.vacuum()
        assert not fam.component([], vac).terms
        assert fam.residual([WittElement.basis(-2)], vac).is_zero()
        fam = VertexScreeningCochains(ctx, QQ(-2, 5), QQ(3, 2), 1, window_halfwidth=-2)
        assert fam.component([], fam.act_source(WittElement.basis(-2), vac)).terms
        with pytest.raises(ValueError, match="window exceeded"):
            fam.residual([WittElement.basis(-2)], vac)
        # pairs dropped, cap -1: L_-1 vac has terms at degree -1 only, above the
        # row range, which ends at -2
        broken = VertexScreeningCochains(
            ctx, QQ(-2, 5), QQ(3, 2), 2, window_halfwidth=-1, include_pairs=False
        )
        with pytest.raises(ValueError, match="window exceeded"):
            broken.residual([WittElement.basis(-1)], broken.space.vacuum())
        # a row [e_n] compares the degrees through cap + |Delta| - 1: at cap 0
        # the one-slot row [e_2] misses the vacuum's top form at degree 0, at
        # cap 1 it holds it and vanishes; at cap 2 the dropped-pairs row
        # compares degree 1 and does not vanish
        fam = VertexScreeningCochains(ctx, QQ(-2, 5), QQ(3, 2), 1, window_halfwidth=0)
        with pytest.raises(ValueError, match="window exceeded"):
            fam.residual([WittElement.basis(2)], fam.space.vacuum())
        fam = VertexScreeningCochains(ctx, QQ(-2, 5), QQ(3, 2), 1, window_halfwidth=1)
        assert fam.residual([WittElement.basis(2)], fam.space.vacuum()).is_zero()
        broken = VertexScreeningCochains(
            ctx, QQ(-2, 5), QQ(3, 2), 2, window_halfwidth=2, include_pairs=False
        )
        assert not broken.residual([WittElement.basis(1)], broken.space.vacuum()).is_zero()

    def test_slots_below_one_rejected(self):
        ctx = ParameterContext(())
        with pytest.raises(ValueError, match="at least one slot, got 0"):
            VertexScreeningCochains(ctx, QQ(-2, 5), QQ(3, 2), 0)

    def test_zero_screening_exponent_rejected(self):
        ctx = ParameterContext(())
        with pytest.raises(ValueError, match="screening exponent beta must be nonzero"):
            VertexScreeningCochains(ctx, QQ(-2, 5), 0, 1)


def _virasoro_family():
    ctx = ParameterContext(("alpha", "b"))
    return VertexScreeningCochains(ctx, ctx.param("alpha"), ctx.param("b"), 2, window_halfwidth=2)


def _virasoro_probe(fam):
    return virasoro_apply(-2, fam.alpha0, osc_apply(("b", -1), fam.space.vacuum()))


def _wakimoto_family():
    return ScreeningCochains(screening_ops(AffineParams.generic()), 2, window_halfwidth=1)


def _wakimoto_probe(fam):
    vac = fam.source.vacuum()
    x = LoopElement.basis(fam.ctx, "F", -1)
    return fam.act_source(x, osc_apply(("as", -1), vac)) + QQ(3) * osc_apply(("b", -1), vac)


VERTEX_FAMILIES = {
    "virasoro": (_virasoro_family, _virasoro_probe),
    "wakimoto": (_wakimoto_family, _wakimoto_probe),
}


class TestMemoisedRoutes:
    """The memoised stress modes, and the unit top forms that both vertex
    cochain families share, against the per-vector routes they replace."""

    @pytest.fixture
    def fam(self):
        return _virasoro_family()

    @pytest.fixture(params=sorted(VERTEX_FAMILIES))
    def family_and_probe(self, request):
        build, probe = VERTEX_FAMILIES[request.param]
        fam = build()
        return fam, probe(fam)

    def test_stress_mode_matches_virasoro_apply(self, fam):
        cases = 0
        for act in (fam.act_src, fam.act_tgt):
            for n in range(-3, 4):
                op = act.mode(n)
                assert act.mode(n) is op
                for e in range(4):
                    for mon in act.space.block_basis(e):
                        u = FockVector(act.space, {mon: fam.ctx.one()})
                        assert op.apply(u) == virasoro_apply(n, fam.alpha0, u), (n, mon)
                        cases += 1
        assert cases == 2 * 7 * 7

    def test_stress_of_a_combination(self, fam):
        b = fam.ctx.param("b")
        u = _virasoro_probe(fam)
        x = WittElement({-2: QQ(2), 1: b})
        want = QQ(2) * virasoro_apply(-2, fam.alpha0, u) + b * virasoro_apply(1, fam.alpha0, u)
        assert fam.act_source(x, u) == want

    def test_unit_top_is_memoised_per_range(self, family_and_probe):
        fam, u = family_and_probe
        mon = max(u.terms, key=len)
        cap = fam.window[1]
        top = fam.unit_top(mon, cap)
        assert fam.unit_top(mon, cap) is top and fam.unit_top(mon, cap - 1) is top
        higher = fam.unit_top(mon, cap + 1)
        assert higher is not top and fam._tops[mon] == (cap + 1, higher)
        assert fam.unit_top(mon, cap) is higher
        assert {k: v for k, v in higher.terms.items() if sum(k[1]) <= cap} == top.terms
        # the natural floor: no term below minus the unit's energy, and one at it
        # (the annihilation halves take every oscillator of the vertex's boson)
        energy = FockVector(fam.source, {mon: fam.ctx.one()}).energy_bound()
        assert min(sum(exps) for _, exps in higher.terms) >= -energy

    def test_top_form_sums_unit_forms(self, family_and_probe):
        # sum c * unit_top(mon) over the terms c*mon of u, read through the cap,
        # is the top form on u, even after a higher-cap read has grown the
        # memo; the Feigin-Fuchs top component is that form (the Wakimoto one
        # takes the charged prefactors as well)
        fam, u = family_and_probe
        assert len(set(u.terms.values())) > 1
        cap = fam.window[1]
        want = multi_vertex_form((fam.mu,) * fam.slots, u, cap)
        got = fam.read_top([], u, 0)
        fam.unit_top(max(u.terms, key=len), cap + 2)
        tops = [got, fam.read_top([], u, 0)]
        if isinstance(fam, VertexScreeningCochains):
            tops.append(fam.component([], u))
        for got in tops:
            assert want.terms and set(got.terms) == set(want.terms)
            for key, value in want.terms.items():
                assert got.terms[key] == value
                assert got.terms[key].space is fam.target

    @pytest.mark.parametrize("slots, rows", [
        (2, [["F1", "F-1"], ["F0", "F1-2H0"], ["F1"], []]),
        (3, [["F1", "F0", "F-1"], ["F1", "F-1"], ["F0"], []]),
    ])
    def test_wakimoto_read_matches_the_per_unit_route(self, slots, rows):
        # one read of the summed top form through cap - sum_x min(n + 1) +
        # (slots - a)(E + 1) against the per-unit reads through
        # cap - a*min_all(n + 1) + (slots - a)(e + 1), on a probe that mixes
        # energies 0, 1 and 2, so E exceeds some units' energy e
        fam = ScreeningCochains(screening_ops(AffineParams.generic()), slots, window_halfwidth=1)
        u = _wakimoto_probe(fam)
        assert len({FockVector(fam.source, {m: 1}).energy_bound() for m in u.terms}) > 1
        L = lambda name, n: LoopElement.basis(fam.ctx, name, n)  # noqa: E731
        elements = {"F1": L("F", 1), "F0": L("F", 0), "F-1": L("F", -1),
                    "F1-2H0": L("F", 1) + Fraction(-2) * L("H", 0)}
        nonzero = 0
        for row in rows:
            xs = [elements[name] for name in row]
            got = fam.component(xs, u)
            assert got.terms == wakimoto_component_per_unit(fam, xs, u).terms, row
            nonzero += not got.is_zero()
        assert nonzero == len(rows)

    def test_top_form_rejects_a_foreign_vector(self, family_and_probe):
        fam, _ = family_and_probe
        with pytest.raises(ValueError, match="the family expects"):
            fam.component([], fam.target.vacuum())


def coefficients_agree(small, large, window):
    """small equals large on every total degree of the window, coefficient for
    coefficient, and small has no term outside it; returns the number compared."""
    lo, hi = window
    assert all(lo <= sum(key[1]) <= hi for key in small.terms)
    keys = [key for key in small.terms.keys() | large.terms.keys() if lo <= sum(key[1]) <= hi]
    for key in keys:
        got, want = small.terms.get(key), large.terms.get(key)
        assert (got.terms if got else {}) == (want.terms if want else {}), key
    return len(keys)


def rows_agree(small, large, rows, probes):
    """component, cleared_d and clear_pairs of two families that differ only in
    their degree cap agree on the smaller window, moved by |Delta| - 1 and
    |Delta|; returns the coefficients compared."""
    assert large.window[1] > small.window[1]
    shift = len(small.connection.active_pairs())
    compared = 0
    for xs in rows:
        for u in probes:
            a, b = small.component(xs, u), large.component(xs, FockVector(large.source, u.terms))
            for op, s in ((lambda f, conn: f, 0), (cleared_d, shift - 1), (clear_pairs, shift)):
                window = tuple(w + s for w in small.window)
                compared += coefficients_agree(op(a, small.connection), op(b, large.connection),
                                               window)
    return compared


class TestRangeCompleteness:
    """A family is exact on every degree of its range: raising the degree cap
    adds degrees and changes none inside the smaller range."""

    def test_virasoro_caps_2_and_5(self):
        W = WittElement.basis
        combo = WittElement({-1: QQ(2), 2: QQ(-3)})
        rows = [[], [W(-1)], [W(2)], [combo], [W(-1), W(1)], [W(-1), W(0), W(1)]]
        sym = ParameterContext(("alpha", "b"))
        rat = ParameterContext(())
        compared = 0
        for slots in (1, 2, 3):
            ctx, alpha, beta = (sym, sym.param("alpha"), sym.param("b")) if slots < 3 else (
                rat, QQ(-2, 5), QQ(3, 2))
            small, large = (VertexScreeningCochains(ctx, alpha, beta, slots, window_halfwidth=cap)
                            for cap in (2, 5))
            vac = small.space.vacuum()
            probes = [vac, osc_apply(("b", -1), vac)]
            compared += rows_agree(small, large, [xs for xs in rows if len(xs) <= slots], probes)
        # a contraction by e_-2 lowers the degree by one, so the component
        # reads the top form one degree past the cap and still reaches it
        at4, at6 = (VertexScreeningCochains(sym, sym.param("alpha"), sym.param("b"), 1,
                                            window_halfwidth=cap) for cap in (4, 6))
        got = at4.component([W(-2)], at4.space.vacuum())
        want = at6.component([W(-2)], at6.space.vacuum())
        assert max(sum(exps) for _, exps in got.terms) == 4
        compared += coefficients_agree(got, want, (-math.inf, 4))
        assert compared > 1000

    def test_wakimoto_caps_1_and_4(self):
        data = screening_ops(AffineParams.generic())
        F = lambda n: LoopElement.basis(data.ctx, "F", n)  # noqa: E731
        rows = [[], [F(0)], [F(1)], [F(-1)], [F(1), F(-1)]]
        compared = 0
        for slots in (1, 2):
            small, large = (ScreeningCochains(data, slots, window_halfwidth=cap) for cap in (1, 4))
            vac = small.source.vacuum()
            probes = [vac, osc_apply(("as", -1), vac)]
            compared += rows_agree(small, large, [xs for xs in rows if len(xs) <= slots], probes)
        assert compared > 100


class TestInWindowAction:
    def test_two_slot_rows_match_the_every_value_route(self):
        # contracting a field with z^0 and z^3 terms leaves the depth-1
        # components with terms above their range, which the rows do not act
        # on; the dropped-pairs family has nonzero rows, so agreement there is
        # not agreement of two zeros
        ctx = ParameterContext(())
        xs = [WittElement.basis(-1), WittElement({-1: QQ(2), 2: QQ(-3)})]
        nonzero = 0
        for include_pairs in (True, False):
            fam = VertexScreeningCochains(
                ctx, QQ(-2, 5), QQ(3, 2), 2, window_halfwidth=3, include_pairs=include_pairs
            )
            u = osc_apply(("b", -1), fam.space.vacuum())
            comp = fam.component(xs[1:], u)
            # d' reads it through cap - 1, and it has terms at the cap
            assert any(sum(exps) == fam.window[1] for _, exps in comp.terms)
            got = fam.residual(xs, u)
            want = every_value_residual(fam, xs, u)
            assert (got - want).is_zero()
            nonzero += not got.is_zero()
        assert nonzero == 1

    @pytest.mark.parametrize("slots, xs", [(1, [WittElement.basis(-2)]),
                                           (2, [WittElement.basis(-1)])], ids=["one", "two"])
    def test_target_action_only_on_the_row_range(self, slots, xs):
        # every value the target action sees lands in the row range once the
        # d' shift |Delta| moves its degree; the top component that d' reads
        # has terms above that range, which ends where d'' of the depth-1
        # component does, one degree below the window moved by |Delta|
        fam = VertexScreeningCochains(ParameterContext(()), QQ(-2, 5), QQ(3, 2), slots)
        u = osc_apply(("b", -1), fam.space.vacuum())
        degrees, forms, acted = {}, [], []
        component, act = fam.component, fam.act_target

        def spy_component(ys, v):
            form = component(ys, v)
            forms.append(form)  # keeps every value alive, so its id stays unique
            degrees.update((id(w), sum(exps)) for (_, exps), w in form.terms.items())
            return form

        def spy_act(x, v):
            acted.append(degrees[id(v)])
            return act(x, v)

        fam.component, fam.act_target = spy_component, spy_act
        row = fam.residual(xs, u)
        shift = len(fam.connection.active_pairs())
        lo, hi = fam.window[0] + shift, fam.window[1] + shift - 1
        assert any(sum(exps) + shift > hi for _, exps in component([], u).terms)
        assert acted and all(lo <= d + shift <= hi for d in acted), (sorted(set(acted)), hi)
        assert row.is_zero()


class TestResidueIntertwiner:
    def test_pair_power_expansion(self):
        got = _pair_power_monomials(2, {(0, 1): 2})
        assert got == {(2, 0): QQ(1), (1, 1): QQ(-2), (0, 2): QQ(1)}
        # binomial theorem check for a higher power
        got8 = _pair_power_monomials(2, {(0, 1): 8})
        assert got8[(4, 4)] == QQ(70)
        assert sum(got8.values()) == QQ(0)
        # one power per pair: (z_0 - z_1)(z_1 - z_2)^2, expanded by hand
        got3 = _pair_power_monomials(3, {(0, 1): 1, (1, 2): 2})
        assert got3 == {
            (1, 2, 0): 1, (1, 1, 1): -2, (1, 0, 2): 1,
            (0, 3, 0): -1, (0, 2, 1): 2, (0, 1, 2): -1,
        }

    def test_single_slot_sends_vacuum_to_shifted_vacuum(self):
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-1, 2), QQ(1), 1)
        assert fam.residue_exponents() == ((-1,), {})
        assert _pair_power_monomials(1, {}) == {(0,): QQ(1)}
        assert fam.residue(fam.space.vacuum()) == fam.target.vacuum()

    def test_two_slot_vacuum_values(self):
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-1), QQ(1), 2)
        assert fam.residue_exponents() == ((-2, -2), {(0, 1): 2})
        assert fam.residue(fam.space.vacuum()) == QQ(-2) * fam.target.vacuum()
        deformed = VertexScreeningCochains(ctx, QQ(-5, 4), QQ(2), 2)
        assert deformed.residue_exponents() == ((-5, -5), {(0, 1): 8})
        assert deformed.residue(deformed.space.vacuum()) == QQ(70) * deformed.target.vacuum()

    def test_residue_needs_the_read_window(self):
        # the deformed residue reads z^(4-d) z^(4-8+d), all at degree
        # -2 + 10 - 8 = 0, so a degree cap of -1 cannot hold it
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-5, 4), QQ(2), 2, window_halfwidth=-1)
        with pytest.raises(ValueError, match="outside the validity window"):
            fam.residue(fam.space.vacuum())
        fam = VertexScreeningCochains(ctx, QQ(-5, 4), QQ(2), 2, window_halfwidth=0)
        assert fam.residue(fam.space.vacuum()) == QQ(70) * fam.target.vacuum()

    def test_energy_preserving_grading(self):
        # ModeOperator.matrix raises if an image leaves the energy-e block
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-1), QQ(1), 2)
        op = ModeOperator(fam.residue, fam.space, fam.target, 0)
        for e in range(3):
            src, tgt, _ = op.matrix(e)
            assert len(src) == len(tgt)

    def test_commutes_with_stress(self):
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-1), QQ(1), 2)
        u = osc_apply(("b", -1), fam.space.vacuum())
        for n in (-2, -1, 0, 1, 2):
            assert fam.intertwining_defect(WittElement.basis(n), u).is_zero()

    def test_rejects_non_integral_exponents(self):
        ctx = ParameterContext(())
        with pytest.raises(ValueError, match="non-integral exponent"):
            VertexScreeningCochains(ctx, QQ(1, 3), QQ(1), 1).residue_exponents()
        sym = ParameterContext(("alpha",))
        fam = VertexScreeningCochains(sym, sym.param("alpha"), sym.scalar(1), 1)
        with pytest.raises(ValueError, match="non-integral exponent"):
            fam.residue(fam.space.vacuum())

    def test_residue_matches_pair_product_route(self):
        # the monomial expansion of prod (z_i - z_j)^P read off the product
        # equals the residue functional of the form multiplied P times by
        # every pair difference
        ctx = ParameterContext(())
        cases = [
            (QQ(-1, 2), QQ(1), 1, 3),
            (QQ(-1), QQ(1), 2, 2),
            (QQ(-5, 4), QQ(2), 2, 1),
        ]
        for alpha, beta, slots, e_max in cases:
            fam = VertexScreeningCochains(ctx, alpha, beta, slots)
            kappas, pairs = fam.residue_exponents()
            power = pairs.get((0, 1), 0)
            cap = -slots - sum(kappas) - sum(pairs.values())  # the degree read
            nonzero = 0
            for e in range(e_max + 1):
                for mon in fam.space.block_basis(e):
                    u = FockVector(fam.space, {mon: ctx.one()})
                    form = multi_vertex_form((beta,) * slots, u, cap)
                    for i, j in itertools.combinations(range(slots), 2):
                        for _ in range(power):
                            form = form.mul_zdiff(i, j)
                    got = residue_functional(form, kappas, {})
                    want = fam.residue(u)
                    assert want.is_zero() if got is None else got == want
                    nonzero += not want.is_zero()
            assert nonzero

    def test_one_slot_symbolic_in_b(self):
        # alpha = kappa/(2b) puts the puncture exponent at kappa for every b;
        # one slot has no pair, so 2b^2 need not be an integer
        ctx = ParameterContext(("b",))
        b = ctx.param("b")
        for kappa in range(-2, 2):
            fam = VertexScreeningCochains(
                ctx, ctx.scalar(QQ(kappa, 2)) / b, b, 1, window_halfwidth=2
            )
            assert fam.residue_exponents() == ((kappa,), {})
            basis = [
                FockVector(fam.space, {mon: ctx.one()})
                for e in range(4)
                for mon in fam.space.block_basis(e)
            ]
            assert len(basis) == 7
            for n in range(-3, 4):
                for v in basis:
                    defect = fam.intertwining_defect(WittElement.basis(n), v)
                    assert defect.is_zero(), (kappa, n, v)
            assert any(not fam.residue(v).is_zero() for v in basis), kappa

    def test_off_resonance_read_is_not_an_intertwiner(self):
        # negative control: the z^(-1-kappa) coefficient read one exponent off
        ctx = ParameterContext(("b",))
        b = ctx.param("b")
        fam = VertexScreeningCochains(ctx, ctx.scalar(QQ(-1, 2)) / b, b, 1, window_halfwidth=2)

        def off(u):
            got = residue_functional(fam.component([], u), (0,), {})
            return fam.target.zero() if got is None else got

        broken = 0
        for n in range(-3, 4):
            for e in range(4):
                for mon in fam.space.block_basis(e):
                    v = FockVector(fam.space, {mon: ctx.one()})
                    x = WittElement.basis(n)
                    defect = fam.act_target(x, off(v)) - off(fam.act_source(x, v))
                    broken += not defect.is_zero()
        assert broken


PASS, XFAIL = "PASS", "EXPECTED-FAIL"


def _all_green(results, expected):
    """Every check is healthy, and the battery reports exactly ``expected``:
    its ordered (check ID, status) pairs, controls included."""
    assert all(r.ok for r in results), [
        (r.check_id, r.status, r.witness) for r in results if not r.ok
    ]
    assert [(r.check_id, r.status) for r in results] == expected


@pytest.fixture(scope="module")
def product_formula():
    return product_formula_check(order_max=6)


@pytest.fixture(scope="module")
def stress_battery():
    """verify_virasoro at full size, run once, with every (n, alpha0, vector)
    that virasoro_apply receives recorded."""
    calls = []

    def spy(n, alpha0, vec):
        calls.append((n, alpha0, vec))
        return virasoro_apply(n, alpha0, vec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(virasoro, "virasoro_apply", spy)
        results = verify_virasoro(mode_max=5, energy_max=6)
    return results, calls


class TestBatteries:
    def test_verify_virasoro_full_size(self, stress_battery):
        results, _ = stress_battery
        _all_green(results, [
            ("stress-ope", PASS),
            ("stress-mode-cross", PASS),
            ("virasoro-bracket-mode", PASS),
            ("heisenberg-stress", PASS),
            ("vacuum-weight", PASS),
            ("virasoro-drop-background", XFAIL),
        ])

    def test_stress_images_are_computed_once(self, stress_battery):
        # one memoised operator per stress mode: at the symbolic background
        # charge L_n only ever sees a unit monomial, and each (n, monomial) once
        _, calls = stress_battery
        symbolic = [(n, vec) for n, alpha0, vec in calls if not alpha0.is_zero()]
        assert symbolic
        for n, vec in symbolic:
            assert [c == 1 for c in vec.terms.values()] == [True], (n, vec.terms)
        keys = [(n, mon) for n, vec in symbolic for mon in vec.terms]
        assert len(keys) == len(set(keys))

    def test_check_L_vertex_full_size(self):
        _all_green(check_L_vertex(mode_max=5), [
            ("vertex-transport", PASS),
            ("heisenberg-vertex", PASS),
            ("vertex-transport-wrong-charge", XFAIL),
        ])

    def test_product_formula_full_size(self, product_formula):
        _all_green(product_formula, [
            ("commutation-series", PASS),
            ("half-vertex-commutation", PASS),
            ("vertex-factorization", PASS),
            ("factorization-drop-commutation", XFAIL),
            ("two-slot-orderings", PASS),
            ("normal-product-leading", PASS),
            ("three-slot-reduction", PASS),
            ("three-slot-wrong-reduction", XFAIL),
        ])

    def test_multi_vertex_products(self, product_formula):
        # iterated vertex products: the two orderings, the leading
        # coefficient and the three-slot reduction with its control
        multi = ("two-slot-orderings", "normal-product-leading", "three-slot")
        _all_green([r for r in product_formula if r.check_id.startswith(multi)], [
            ("two-slot-orderings", PASS),
            ("normal-product-leading", PASS),
            ("three-slot-reduction", PASS),
            ("three-slot-wrong-reduction", XFAIL),
        ])

    def test_orderings_read_the_factorization_verdicts(self, monkeypatch):
        # one wrong commutation coefficient breaks the shared two-slot
        # reduction: the first ordering and both orderings fail together
        coeffs = virasoro._commutation_coeffs

        def off_by_one(ctx, gamma, order):
            out = coeffs(ctx, gamma, order)
            return out[:1] + [out[1] + ctx.one()] + out[2:]

        monkeypatch.setattr(virasoro, "_commutation_coeffs", off_by_one)
        status = {r.check_id: r.status for r in product_formula_check(order_max=1)}
        assert status["vertex-factorization"] == "FAIL"
        assert status["two-slot-orderings"] == "FAIL"

    def test_multi_vertex_transport(self):
        _all_green(check_multi_vertex_transport(), [
            ("transport-two-slots", PASS),
            ("transport-three-slots", PASS),
            ("transport-wrong-weight", XFAIL),
        ])

    def test_screening_cochains(self):
        _all_green(screening_cochain_checks(), [
            ("screening-invariance-1", PASS),
            ("screening-cocycle-1", PASS),
            ("screening-invariance-2", PASS),
            ("screening-cocycle-2", PASS),
            ("screening-cocycle-3", PASS),
            ("screening-cocycle-drop-pairs", XFAIL),
        ])

    def test_ff_intertwiners(self):
        _all_green(ff_intertwiner_checks(), [
            ("residue-intertwiner-one-slot", PASS),
            ("residue-intertwiner-two-slot", PASS),
            ("residue-intertwiner-two-slot-deformed", PASS),
            ("residue-intertwiner-rejects", PASS),
            ("residue-intertwiner-wrong-charge", XFAIL),
        ])
