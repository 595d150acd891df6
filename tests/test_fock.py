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
    OscSpec,
    commutator_blocks,
    monomial_charge,
    monomial_energy,
    osc_apply,
    oscillator_mode,
)

from oracles import apply_monomial, apply_ordered_word, normal_order


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


class TestBlockStructure:
    def test_boson_dims_match_generating_function(self, boson):
        ctx, spec, F = boson
        gf = gf_block_dims(8, 0, has_pair=False)
        for e in range(9):
            assert F.block_dim(e, 0) == gf.get((e, 0), 0)
            assert F.block_dim(e, 1) == 0

    def test_charged_dims_match_generating_function(self, charged):
        ctx, spec, F = charged
        gf = gf_block_dims(5, 3, has_pair=True)
        for e in range(6):
            for c in range(-3, 4):
                assert F.block_dim(e, c) == gf.get((e, c), 0), (e, c)

    def test_blocks_partition_vectors(self, charged):
        ctx, spec, F = charged
        v = osc_apply(("as", 0), F.vacuum()) + osc_apply(("b", -2), F.vacuum())
        blocks = v.blocks()
        assert set(blocks) == {(0, 1), (2, 0)}
        total = F.zero()
        for part in blocks.values():
            total = total + part
        assert total == v


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
                assert rows[i][j] == image.coefficient(tmon)
        # memoized: same tuple object back
        assert op.matrix(1, 1) is op.matrix(1, 1)


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
