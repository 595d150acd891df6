"""Oscillator algebra and Fock module tests.

The dimension oracle below expands the bigraded generating function of the
creation alphabet directly (geometric factors multiplied as truncated
two-variable series), independently of the monomial enumeration in the
package.
"""

import random
from fractions import Fraction

import pytest

from screenops.scalars import ParameterContext
from screenops.fock import (
    FockSpace,
    FockVector,
    ModeOperator,
    OscSpec,
    commutator_blocks,
    mode_energy,
    monomial_energy,
    osc_apply,
)

from oracles import apply_monomial, apply_ordered_word, mode_charge, monomial_charge, normal_order


def gf_block_dims(energy_cap: int, charge_cap: int, has_pair: bool):
    """Expand prod 1/(1 - x^n y^c) over the creation alphabet, truncated."""
    series = {(0, 0): 1}

    def times_geometric(e0, c0):
        nonlocal series
        out = {}
        for (e, c), v in series.items():
            k = 0
            while True:
                ee, cc = e + k * e0, c + k * c0
                if ee > energy_cap or abs(cc) > 3 * charge_cap + energy_cap:
                    break
                if e0 == 0 and c0 == 0:
                    break
                out[(ee, cc)] = out.get((ee, cc), 0) + v
                if e0 == 0 and k > 2 * charge_cap + energy_cap:
                    break
                k += 1
        series = out

    for n in range(1, energy_cap + 1):  # boson modes b_{-n}
        times_geometric(n, 0)
    if has_pair:
        for n in range(1, energy_cap + 1):  # a_{-n}, charge -1
            times_geometric(n, -1)
        times_geometric(0, 1)  # a*_0, charge +1, energy 0
        for n in range(1, energy_cap + 1):  # a*_{-n}, charge +1
            times_geometric(n, 1)
    return series


def oscillator_mode(mode, space):
    """The single oscillator ``mode`` as a ModeOperator on ``space``."""
    return ModeOperator(
        lambda v: osc_apply(mode, v), space, space, mode_energy(mode), mode_charge(mode)
    )


@pytest.fixture
def boson():
    ctx = ParameterContext(("alpha",))
    spec = OscSpec(ctx, has_pair=False)
    return ctx, spec, FockSpace(spec, ctx.param("alpha"))


@pytest.fixture
def charged():
    ctx = ParameterContext(("lam",))
    spec = OscSpec(ctx, has_pair=True)
    return ctx, spec, FockSpace(spec, ctx.param("lam"))


class TestOscillatorAction:
    def test_unknown_family_is_rejected_at_the_entry_points(self, charged):
        ctx, spec, F = charged
        with pytest.raises(ValueError, match="unknown oscillator family"):
            osc_apply(("x", 1), F.vacuum())
        with pytest.raises(ValueError, match="unknown oscillator family"):
            spec.bracket(("x", 1), ("b", -1))

    def test_boson_bracket_through_vacuum(self, boson):
        ctx, spec, F = boson
        v = F.vacuum()
        w = osc_apply(("b", 2), osc_apply(("b", -2), v))
        assert w == 4 * v

    def test_zero_mode_eigenvalue(self, boson):
        ctx, spec, F = boson
        v = F.vacuum()
        assert osc_apply(("b", 0), v) == (2 * ctx.param("alpha")) * v
        # also on a nontrivial monomial (b_0 is central)
        u = osc_apply(("b", -3), v)
        assert osc_apply(("b", 0), u) == (2 * ctx.param("alpha")) * u

    def test_annihilators_kill_vacuum(self, charged):
        ctx, spec, F = charged
        v = F.vacuum()
        for mode in (("b", 1), ("b", 5), ("a", 0), ("a", 2), ("as", 1)):
            assert osc_apply(mode, v).is_zero()

    def test_charged_pair_brackets(self, charged):
        ctx, spec, F = charged
        v = F.vacuum()
        # [a_1, a*_{-1}] = -1 with this alphabet's contraction convention
        assert osc_apply(("a", 1), osc_apply(("as", -1), v)) == -v
        # [a*_1, a_{-1}] = +1
        assert osc_apply(("as", 1), osc_apply(("a", -1), v)) == v
        # a*_0 creates a charge-one monomial
        u = osc_apply(("as", 0), v)
        assert list(u.terms) == [(("as", 0),)]
        assert monomial_charge(next(iter(u.terms))) == 1
        assert monomial_energy(next(iter(u.terms))) == 0
        # a_0 pairs against a*_0 occurrences
        assert osc_apply(("a", 0), u) == -v
        two = osc_apply(("as", 0), u)
        assert osc_apply(("a", 0), two) == -2 * u

    def test_mixed_families_commute(self, charged):
        ctx, spec, F = charged
        v = osc_apply(("a", -2), osc_apply(("b", -1), F.vacuum()))
        # a* modes see only a-partners: no a_{-3} is present
        assert osc_apply(("as", 3), v).is_zero()
        left = osc_apply(("b", 1), osc_apply(("a", 2), v))
        right = osc_apply(("a", 2), osc_apply(("b", 1), v))
        assert left == right

    def test_block_image_is_sum_of_monomial_images(self, charged):
        # osc_apply builds its image without merging keys; a whole block with
        # distinct coefficients catches any two monomials sent to one key
        ctx, spec, F = charged
        lam = ctx.param("lam")
        block = F.block_basis(3, 0)
        coeffs = {mon: lam + k for k, mon in enumerate(block)}
        vec = FockVector(F, dict(coeffs))
        modes = [("b", -2), ("b", 1), ("a", -1), ("a", 1), ("as", -1), ("as", 0), ("as", 1)]
        for mode in modes:
            want = F.zero()
            for mon, c in coeffs.items():
                want = want + osc_apply(mode, FockVector(F, {mon: c}))
            got = osc_apply(mode, vec)
            assert not want.is_zero(), mode
            assert got == want, mode
            assert all(not c.is_zero() for c in got.terms.values()), mode


class TestBlockStructure:
    def test_boson_dims_match_generating_function(self, boson):
        ctx, spec, F = boson
        gf = gf_block_dims(8, 0, has_pair=False)
        for e in range(9):
            assert len(F.block_basis(e, 0)) == gf.get((e, 0), 0)
            assert len(F.block_basis(e, 1)) == 0

    def test_charged_dims_match_generating_function(self, charged):
        ctx, spec, F = charged
        gf = gf_block_dims(5, 3, has_pair=True)
        for e in range(6):
            for c in range(-3, 4):
                assert len(F.block_basis(e, c)) == gf.get((e, c), 0), (e, c)


class TestNormalOrdering:
    def test_two_mode_reordering_with_ledger(self, boson):
        ctx, spec, F = boson
        ordered, expansion, ledger = normal_order(spec, (("b", 3), ("b", -3)))
        assert ordered == (("b", -3), ("b", 3))
        assert ledger == {(("b", 3), ("b", -3)): ctx.scalar(6)}
        assert expansion[(("b", -3), ("b", 3))] == 1
        assert expansion[()] == 6

    def test_already_ordered_word(self, boson):
        ctx, spec, F = boson
        ordered, expansion, ledger = normal_order(spec, (("b", 1), ("b", 2)))
        assert ordered == (("b", 1), ("b", 2))
        assert ledger == {}
        assert expansion == {(("b", 1), ("b", 2)): ctx.one()}

    def test_expansion_reproduces_operator_product(self, charged):
        ctx, spec, F = charged
        rng = random.Random(7)
        alphabet = [
            ("b", -2), ("b", -1), ("b", 1), ("b", 2),
            ("a", -1), ("a", 0), ("a", 1),
            ("as", -1), ("as", 0), ("as", 1),
        ]
        probes = [
            F.vacuum(),
            osc_apply(("as", 0), osc_apply(("b", -1), F.vacuum())),
            osc_apply(("a", -1), osc_apply(("as", -2), F.vacuum())),
        ]
        for _ in range(25):
            word = tuple(rng.choice(alphabet) for _ in range(rng.randint(2, 5)))
            _, expansion, _ = normal_order(spec, word)
            for v in probes:
                direct = apply_monomial(word, v)
                viaexp = F.zero()
                for w, c in expansion.items():
                    viaexp = viaexp + c * apply_ordered_word(w, v)
                assert direct == viaexp, word


class TestModeOperators:
    def test_boson_commutator_blocks(self, boson):
        ctx, spec, F = boson
        for n in (1, 2, 3):
            a = oscillator_mode(("b", n), F)
            b = oscillator_mode(("b", -n), F)
            for energy in (0, 1, 2, 3):
                src, tgt, rows = commutator_blocks(a, b, energy)
                assert src == tgt
                for i in range(len(src)):
                    for j in range(len(src)):
                        expected = ctx.scalar(2 * n if i == j else 0)
                        assert rows[i][j] == expected

    def test_charged_commutator_blocks(self, charged):
        ctx, spec, F = charged
        a = oscillator_mode(("a", 1), F)
        astar = oscillator_mode(("as", -1), F)
        src, tgt, rows = commutator_blocks(a, astar, 1, 0)
        assert src == tgt
        for i in range(len(src)):
            for j in range(len(src)):
                assert rows[i][j] == ctx.scalar(-1 if i == j else 0)

    def test_matrix_agrees_with_application(self, charged):
        ctx, spec, F = charged
        op = oscillator_mode(("b", -1), F)
        src, tgt, rows = op.matrix(1, 1)
        assert src == F.block_basis(1, 1)
        assert tgt == F.block_basis(2, 1)
        for j, mon in enumerate(src):
            image = op.apply(FockVector(F, {mon: ctx.one()}))
            for i, tmon in enumerate(tgt):
                assert rows[i][j] == image.terms.get(tmon, ctx.zero())

    def test_apply_sums_memoized_monomial_images(self, charged):
        ctx, spec, F = charged
        lam = ctx.param("lam")
        calls = []

        def fn(v):
            calls.append(v)
            return osc_apply(("b", -1), osc_apply(("b", 1), v)) + lam * osc_apply(
                ("as", -1), osc_apply(("a", 1), v)
            )

        op = ModeOperator(fn, F, F, 0)
        vac = F.vacuum()
        vec = (
            (lam + 1) * osc_apply(("b", -1), osc_apply(("as", -1), vac))
            + 3 * osc_apply(("a", -1), osc_apply(("as", -1), osc_apply(("b", -1), vac)))
            + lam * osc_apply(("as", -1), osc_apply(("as", -1), osc_apply(("a", -1), vac)))
        )
        want = fn(vec)
        calls.clear()
        assert not want.is_zero()
        assert op.apply(vec) == want
        assert len(calls) == 3  # one unit vector per monomial
        assert op.apply(vec) == want
        assert len(calls) == 3  # the second application reads the memo
        assert op.apply(F.zero()) == F.zero()

    def test_apply_matches_the_osc_apply_chain_on_every_monomial(self, charged):
        """apply adds c * image into one dict; the per-term route applies the
        osc_apply chain to the vector itself.  Every monomial of the energy <= 3
        blocks, coefficients 1, -1, rational and symbolic."""
        ctx, spec, F = charged
        lam = ctx.param("lam")

        def fn(v):
            return osc_apply(("b", -1), osc_apply(("b", 1), v)) + lam * osc_apply(
                ("as", -1), osc_apply(("a", 1), v)
            )

        op = ModeOperator(fn, F, F, 0)
        coeffs = [ctx.one(), -ctx.one(), ctx.scalar(Fraction(-3, 7)), (lam + 2) / (lam - 1)]
        mons = [mon for energy in range(4) for charge in (-1, 0, 1)
                for mon in F.block_basis(energy, charge)]
        for mon in mons:
            for c in coeffs:
                vec = FockVector(F, {mon: c})
                assert op.apply(vec).terms == fn(vec).terms, (mon, c)
        mixed = FockVector(F, {mon: coeffs[i % len(coeffs)] for i, mon in enumerate(mons)})
        got = op.apply(mixed)
        assert got.terms and got.terms == fn(mixed).terms
        assert all(not c.is_zero() for c in got.terms.values())

    def test_apply_drops_a_combination_that_cancels(self, boson):
        ctx, spec, F = boson
        vac = F.vacuum()
        op = ModeOperator(lambda v: osc_apply(("b", 1), v) + osc_apply(("b", 2), v), F, F, -1)
        # b_1 (2 b_-1) v = 4 v = b_2 b_-2 v
        vec = 2 * osc_apply(("b", -1), vac) - osc_apply(("b", -2), vac)
        assert op.apply(vec).terms == {}

    def test_add_and_sub_work_in_place_and_drop_zeros(self, charged):
        ctx, spec, F = charged
        lam = ctx.param("lam")
        vac = F.vacuum()
        u = osc_apply(("b", -1), vac) + lam * osc_apply(("as", -1), vac)
        w = osc_apply(("b", -1), vac) - 3 * osc_apply(("a", -1), vac)
        assert (u - w).terms == {(("as", -1),): lam, (("a", -1),): ctx.scalar(3)}
        assert (u + w).terms == {
            (("b", -1),): ctx.scalar(2), (("as", -1),): lam, (("a", -1),): ctx.scalar(-3)}
        assert (u - u).terms == {}
        assert u.terms == {(("b", -1),): ctx.one(), (("as", -1),): lam}  # operands unchanged

    def test_apply_rejects_vector_over_another_space(self, charged):
        ctx, spec, F = charged
        op = oscillator_mode(("b", -1), F)
        with pytest.raises(ValueError):
            op.apply(F.shifted(1).vacuum())


class TestShiftOperator:
    def test_shift_commutes_with_creation_and_annihilation(self, boson):
        ctx, spec, F = boson
        beta = ctx.scalar(Fraction(3, 2))
        G = F.shifted(beta)

        def shift(vec):
            return FockVector(G, dict(vec.terms))

        v = osc_apply(("b", -2), osc_apply(("b", -1), F.vacuum()))
        for mode in (("b", -3), ("b", 1), ("b", 2)):
            assert shift(osc_apply(mode, v)) == osc_apply(mode, shift(v))
        # the zero mode witnesses the label shift
        assert osc_apply(("b", 0), shift(v)) == shift(osc_apply(("b", 0), v)) + (2 * beta) * shift(v)

    def test_shifted_space_equality(self, boson):
        ctx, spec, F = boson
        assert F.shifted(1).shifted(-1) == F
        assert F.shifted(2) != F
