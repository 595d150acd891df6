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
from screenops.forms import WittElement
from screenops.verma_screenings import residue_functional
from screenops.virasoro import (
    VertexScreeningCochains,
    _commutation_coeffs,
    _exp_series_coeffs,
    _pair_power_monomials,
    _telescoped_quotient,
    central_charge,
    check_L_vertex,
    check_multi_vertex_products,
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
    virasoro_mode,
)

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
        L2 = virasoro_mode(2, QQ(1, 3), space)
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
        M = normal_multi_vertex([b], u, ((-2, 2),))
        tgt_zero = space.shifted(b).zero()
        for e in range(-2, 3):
            got = M.terms.get(((), (e,)), tgt_zero)
            assert got == apply_vertex(b, e, u)

    def test_slot_exchange_symmetry(self, symbolic):
        ctx, space = symbolic
        alpha0, b = ctx.param("alpha0"), ctx.param("b")
        vac = space.vacuum()
        window = ((-2, 2), (-2, 2))
        M12 = normal_multi_vertex([b, alpha0], vac, window)
        M21 = normal_multi_vertex([alpha0, b], vac, window)
        for (subset, exps), value in M12.terms.items():
            swapped = M21.terms.get((subset, (exps[1], exps[0])))
            assert swapped is not None and swapped == value

    def test_window_validation(self, symbolic):
        ctx, space = symbolic
        b = ctx.param("b")
        with pytest.raises(ValueError):
            normal_multi_vertex([b], space.vacuum(), ((2, -2),))
        with pytest.raises(ValueError):
            normal_multi_vertex([], space.vacuum(), ())

    def test_leading_coefficient_on_vacuum(self, rational):
        ctx, space = rational
        mus = [QQ(1, 2), QQ(3)]
        M = normal_multi_vertex(mus, space.vacuum(), ((0, 0), (0, 0)))
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
            -2, [QQ(3, 2), QQ(-1, 2)], QQ(1, 3), space.vacuum(), ((-3, 3), (-3, 3))
        )
        assert defect.is_zero()

    def test_wrong_weight_is_visible(self, rational):
        ctx, space = rational
        defect = multi_vertex_transport_defect(
            1,
            [QQ(3, 2), QQ(-1, 2)],
            QQ(1, 3),
            space.vacuum(),
            ((-3, 3), (-3, 3)),
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
        b = fam.beta
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
        # regression: a row whose window shrank to nothing passed vacuously
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-2, 5), QQ(3, 2), 1, window_halfwidth=0)
        with pytest.raises(ValueError, match="window exceeded"):
            fam.residual([WittElement.basis(2)], fam.space.vacuum())
        broken = VertexScreeningCochains(
            ctx, QQ(-2, 5), QQ(3, 2), 2, window_halfwidth=1, include_pairs=False
        )
        with pytest.raises(ValueError, match="window exceeded"):
            broken.residual([WittElement.basis(1)], broken.space.vacuum())

    def test_slots_below_one_rejected(self):
        ctx = ParameterContext(())
        with pytest.raises(ValueError, match="at least one slot, got 0"):
            VertexScreeningCochains(ctx, QQ(-2, 5), QQ(3, 2), 0)

    def test_zero_screening_exponent_rejected(self):
        ctx = ParameterContext(())
        with pytest.raises(ValueError, match="screening exponent beta must be nonzero"):
            VertexScreeningCochains(ctx, QQ(-2, 5), 0, 1)


class TestResidueIntertwiner:
    def test_pair_power_expansion(self):
        got = _pair_power_monomials(2, 2)
        assert got == {(2, 0): QQ(1), (1, 1): QQ(-2), (0, 2): QQ(1)}
        # binomial theorem check for a higher power
        got8 = _pair_power_monomials(2, 8)
        assert got8[(4, 4)] == QQ(70)
        assert sum(got8.values()) == QQ(0)

    def test_single_slot_sends_vacuum_to_shifted_vacuum(self):
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-1, 2), QQ(1), 1)
        assert fam.residue_exponents() == (-1, 2)
        assert _pair_power_monomials(1, 2) == {(0,): QQ(1)}
        assert fam.residue(fam.space.vacuum()) == fam.target.vacuum()

    def test_two_slot_vacuum_values(self):
        ctx = ParameterContext(())
        fam = VertexScreeningCochains(ctx, QQ(-1), QQ(1), 2)
        assert fam.residue_exponents() == (-2, 2)
        assert fam.residue(fam.space.vacuum()) == QQ(-2) * fam.target.vacuum()
        deformed = VertexScreeningCochains(ctx, QQ(-5, 4), QQ(2), 2)
        assert deformed.residue_exponents() == (-5, 8)
        assert deformed.residue(deformed.space.vacuum()) == QQ(70) * deformed.target.vacuum()

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
            kappa, power = fam.residue_exponents()
            e0 = -1 - kappa
            window = ((e0 - power * (slots - 1), e0),) * slots
            nonzero = 0
            for e in range(e_max + 1):
                for mon in fam.space.block_basis(e):
                    u = FockVector(fam.space, {mon: ctx.one()})
                    form = multi_vertex_form((beta,) * slots, u, window)
                    for i, j in itertools.combinations(range(slots), 2):
                        for _ in range(power):
                            form = form.mul_zdiff(i, j)
                    got = residue_functional(form, [kappa] * slots)
                    want = fam.residue(u)
                    assert want.is_zero() if got is None else got == want
                    nonzero += not want.is_zero()
            assert nonzero


def _all_green(results):
    assert results, "battery returned no checks"
    assert all(r.ok for r in results), [
        (r.check_id, r.status, r.witness) for r in results if not r.ok
    ]
    assert any(r.expected_fail for r in results)


class TestBatteries:
    def test_verify_virasoro_full_size(self):
        _all_green(verify_virasoro(mode_max=5, energy_max=6))

    def test_check_L_vertex_full_size(self):
        _all_green(check_L_vertex(mode_max=5))

    def test_product_formula_full_size(self):
        _all_green(product_formula_check(order_max=6))

    def test_multi_vertex_products(self):
        _all_green(check_multi_vertex_products())

    def test_multi_vertex_transport(self):
        _all_green(check_multi_vertex_transport())

    def test_screening_cochains(self):
        _all_green(screening_cochain_checks())

    def test_ff_intertwiners(self):
        _all_green(ff_intertwiner_checks())
