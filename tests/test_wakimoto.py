"""Rank-one currents, screening transport, multi-slot cocycles, descent.

Hand-computed oracle values pin down the conventions (vacuum eigenvalues,
explicit mode images, the transport scalar at a hand-worked coefficient);
the verify_* batteries then assert the full sweeps all-green at their
spec-level sizes, each with at least one expected-fail control.
"""

from fractions import Fraction

import pytest

from screenops.scalars import ParameterContext, ParamPolynomial
from screenops.fields import FieldExpr, apply_field_coeff, wick_ope
from screenops.fock import FockVector, commutator_blocks, monomial_energy, osc_apply
from screenops import wakimoto_screenings
from screenops.forms import residue_functional
from screenops.wakimoto import (
    AffineParams,
    CurrentAction,
    LoopElement,
    _deep_probes,
    current_bracket,
    current_pairing,
    verify_current_algebra,
    wakimoto_current,
    wakimoto_space,
)
from screenops.wakimoto_screenings import (
    ScreeningCochains,
    ScreeningData,
    screening_cocycle,
    screening_ops,
    verify_screened_current_brackets,
    verify_screening_regularity,
)

from oracles import monomial_charge

QQ = Fraction


@pytest.fixture
def setup():
    params = AffineParams.generic()
    space = wakimoto_space(params)
    act = CurrentAction(params, space)
    return params, space, act


class TestParams:
    def test_level(self):
        params = AffineParams.generic()
        nu = params.nu
        assert params.level == nu * nu - params.ctx.scalar(2)
        rational = AffineParams(ParameterContext(()), nu=QQ(2), chi=QQ(1))
        assert rational.level == rational.ctx.scalar(2)

    def test_critical_deformation_rejected(self):
        with pytest.raises(ValueError, match="nu must be nonzero"):
            AffineParams(ParameterContext(()), nu=0, chi=QQ(1))

    def test_unknown_current_rejected(self):
        with pytest.raises(ValueError, match="unknown current"):
            wakimoto_current("X", AffineParams.generic())


class TestHighestWeight:
    def test_cartan_eigenvalue(self, setup):
        params, space, act = setup
        vac = space.vacuum()
        assert act.apply("H", 0, vac) == params.chi * vac

    def test_annihilation_pattern(self, setup):
        params, space, act = setup
        vac = space.vacuum()
        for n in range(0, 4):
            assert act.apply("E", n, vac).is_zero()
        for n in range(1, 4):
            assert act.apply("H", n, vac).is_zero()
            assert act.apply("F", n, vac).is_zero()

    def test_lowering_zero_mode_image(self, setup):
        # F<0> v: only the boson cross-term survives on the vacuum, whose
        # zero mode is the label eigenvalue; the image is -chi times the
        # charge raiser
        params, space, act = setup
        vac = space.vacuum()
        want = (QQ(-1) * params.chi) * osc_apply(("as", 0), vac)
        assert act.apply("F", 0, vac) == want

    def test_raise_after_lower_recovers_weight(self, setup):
        params, space, act = setup
        vac = space.vacuum()
        f0 = act.apply("F", 0, vac)
        assert act.apply("E", 0, f0) == params.chi * vac
        assert act.apply("E", 1, f0).is_zero()

    def test_screened_module_weight(self, setup):
        params, space, act = setup
        chi = params.chi - params.ctx.scalar(2)
        screened = wakimoto_space(params, chi)
        assert screened == space.shifted(params.ctx.one() / params.nu)
        sact = CurrentAction(params, screened)
        svac = screened.vacuum()
        assert sact.apply("H", 0, svac) == chi * svac


class TestCurrentProducts:
    def test_cartan_double_pole(self, setup):
        params, space, act = setup
        ope = wick_ope(act.field("H"), act.field("H"))
        want = FieldExpr.scalar(params.ctx, QQ(2) * params.level)
        assert ope.max_order() == 2
        assert ope.pole(2) == want
        assert ope.pole(1).is_zero()

    def test_raising_lowering_product(self, setup):
        params, space, act = setup
        ope = wick_ope(act.field("E"), act.field("F"))
        assert ope.pole(2) == FieldExpr.scalar(params.ctx, params.level)
        assert ope.pole(1) == act.field("H")

    def test_cartan_moves_raising(self, setup):
        params, space, act = setup
        ope = wick_ope(act.field("H"), act.field("E"))
        assert ope.pole(2).is_zero()
        assert ope.pole(1) == QQ(2) * act.field("E")

    def test_nilpotent_directions_regular(self, setup):
        params, space, act = setup
        assert wick_ope(act.field("E"), act.field("E")).is_regular()
        assert wick_ope(act.field("F"), act.field("F")).is_regular()

    def test_pairing_and_bracket_tables(self, setup):
        params, space, act = setup
        ctx = params.ctx
        assert current_pairing(params, "H", "H") == QQ(2) * params.level
        assert current_pairing(params, "E", "F") == params.level
        assert current_pairing(params, "E", "H").is_zero()
        assert current_bracket(params, "H", "F") == QQ(-2) * act.field("F")
        assert current_bracket(params, "F", "E") == QQ(-1) * act.field("H")
        assert current_bracket(params, "E", "E").is_zero()


class TestLoopElements:
    def test_bracket_with_center(self):
        ctx = ParameterContext(("nu", "chi"))
        e1 = LoopElement.basis(ctx, "E", 1)
        fm1 = LoopElement.basis(ctx, "F", -1)
        got = e1.bracket(fm1)
        want = LoopElement(ctx, {("H", 0): ctx.one(), "c": ctx.one()})
        assert (got - want).is_zero()
        hh = LoopElement.basis(ctx, "H", 2).bracket(LoopElement.basis(ctx, "H", -2))
        assert (hh - LoopElement(ctx, {"c": ctx.scalar(4)})).is_zero()

    def test_jacobi_sample(self):
        ctx = ParameterContext(())
        a = LoopElement.basis(ctx, "E", 1)
        b = LoopElement.basis(ctx, "F", 0)
        c = LoopElement.basis(ctx, "H", -1)
        total = (
            a.bracket(b.bracket(c))
            + b.bracket(c.bracket(a))
            + c.bracket(a.bracket(b))
        )
        assert total.is_zero()

    def test_center_is_central(self):
        ctx = ParameterContext(())
        z = LoopElement.center(ctx)
        x = LoopElement.basis(ctx, "F", 3)
        assert z.bracket(x).is_zero()
        assert x.bracket(z).is_zero()

    def test_central_term_in_module(self, setup):
        params, space, act = setup
        ctx = params.ctx
        vac = space.vacuum()
        lhs = act.apply("E", 1, act.apply("F", -1, vac)) - act.apply(
            "F", -1, act.apply("E", 1, vac)
        )
        want = act.apply("H", 0, vac) + params.level * vac
        assert lhs == want


class TestModeMemo:
    def test_memoized_blocks_match_fresh_field_coefficients(self, setup):
        """commutator_blocks of the memoized act.mode operators equals the
        matrix composed from fresh apply_field_coeff calls."""
        params, space, act = setup
        ctx = params.ctx
        checked = 0
        for x, y in (("E", "F"), ("H", "F"), ("H", "E")):
            X, Y = wakimoto_current(x, params), wakimoto_current(y, params)
            for n, m in ((1, -1), (0, 0), (2, -2), (-1, 1)):
                for energy in range(3):
                    for charge in (-1, 0, 1):
                        src, tgt, rows = commutator_blocks(act.mode(x, n), act.mode(y, m),
                                                           energy, charge)
                        for j, mon in enumerate(src):
                            unit = FockVector(space, {mon: ctx.one()})
                            fresh = apply_field_coeff(
                                X, -n - 1, apply_field_coeff(Y, -m - 1, unit)
                            ) - apply_field_coeff(Y, -m - 1, apply_field_coeff(X, -n - 1, unit))
                            assert set(fresh.terms) <= set(tgt)
                            for i, tmon in enumerate(tgt):
                                assert rows[i][j] == fresh.terms.get(tmon, ctx.zero())
                            checked += 1
        assert checked > 100
        # one operator per mode, shared by apply and the block matrices
        assert act.mode("e", 1) is act.mode("E", 1)
        vec = space.vacuum()
        assert act.apply("F", -1, vec) == act.mode("F", -1).apply(vec)


class TestScreeningTransport:
    def test_screen_coefficient_hand_value(self, setup):
        # S(0) v = -(charged creator) on the label-shifted vacuum: the
        # exponent-0 vertex coefficient is the bare label shift
        params, space, act = setup
        data = screening_ops(params)
        vac = space.vacuum()
        got = apply_field_coeff(data.screen, 0, vac)
        shifted_vac = space.shifted(data.label_shift).vacuum()
        assert got == QQ(-1) * osc_apply(("a", -1), shifted_vac)

    def test_transport_hand_value(self, setup):
        # hand chain at n=0, s=-1: S(-1) kills the vacuum, F<0> v is
        # -chi times the charge raiser, and the single surviving charged
        # contraction gives [F<0>, S(-1)] v = chi * (shifted vacuum);
        # the transport scalar (s+1-chi/nu^2) times G(0) v agrees
        params, space, act = setup
        ctx = params.ctx
        data = screening_ops(params)
        vac = space.vacuum()
        tgt = space.shifted(data.label_shift)
        act_tgt = CurrentAction(params, tgt)

        assert apply_field_coeff(data.screen, -1, vac).is_zero()
        f_vac = act.apply("F", 0, vac)
        lhs = act_tgt.apply("F", 0, apply_field_coeff(data.screen, -1, vac)) - \
            apply_field_coeff(data.screen, -1, f_vac)
        assert lhs == params.chi * tgt.vacuum()

        scalar = ctx.zero() - params.chi / (params.nu * params.nu)
        rhs = scalar * apply_field_coeff(data.image("F"), 0, vac)
        assert lhs == rhs

    def test_companion_residues_machine_values(self, setup):
        # the lowering current against its own companion leaves twice the
        # charge-dressed companion (hand expansion: only the boson
        # cross-term contracts, with coefficient -nu * (-2/nu) = 2)
        params, space, act = setup
        ctx = params.ctx
        data = screening_ops(params)
        g = data.image("F")
        ope = wick_ope(act.field("F"), g)
        assert ope.max_order() == 1
        assert ope.pole(1) == QQ(2) * (FieldExpr.field(ctx, "gamma", 0) * g)
        assert wick_ope(act.field("E"), g).is_regular()
        assert wick_ope(act.field("H"), g).pole(1) == QQ(-2) * g

    def test_loop_image_shift(self, setup):
        # a degree-n loop generator multiplies the companion family by the
        # n-th power of the variable: coefficient s of the shifted family
        # is coefficient s - n of the bare one
        params, space, act = setup
        ctx = params.ctx
        data = screening_ops(params)
        vac = space.vacuum()
        shifted = data.loop_image_coeff(LoopElement.basis(ctx, "F", 2), 3, vac)
        bare = apply_field_coeff(data.image("F"), 1, vac)
        assert shifted == bare
        assert data.loop_image_coeff(LoopElement.center(ctx), 0, vac).is_zero()
        assert data.loop_image_coeff(
            LoopElement.basis(ctx, "E", 1), 0, vac
        ).is_zero()


def _shipped_params(kind):
    if kind == "generic":
        params = AffineParams.generic()
        return params, params.ctx.param("nu"), params.ctx.param("chi")
    ctx = ParameterContext(())
    return AffineParams(ctx, nu=2, chi=1), ctx.scalar(2), ctx.scalar(1)


class TestScreeningData:
    @pytest.mark.parametrize("kind", ["generic", "rational"])
    def test_shipped_data(self, kind):
        params, nu, chi = _shipped_params(kind)
        ctx = params.ctx
        data = screening_ops(params)
        assert data.params is params and data.ctx is ctx
        vertex = FieldExpr.vertex(ctx, 1 / nu)
        assert data.screen == QQ(-1) * (FieldExpr.field(ctx, "beta", 0) * vertex)
        assert data.images["E"] == FieldExpr.zero(ctx)
        assert data.images["H"] == FieldExpr.zero(ctx)
        assert data.images["F"] == (QQ(-1) * nu * nu) * vertex
        assert (data.label_shift - 1 / nu).is_zero()
        # the connection exponents the two-slot family derives from the data
        conn = ScreeningCochains(data, 2).connection
        assert len(conn.kappa) == 2
        assert all((kappa + chi / (nu * nu)).is_zero() for kappa in conn.kappa)
        assert list(conn.pairs) == [(0, 1)]
        assert (conn.pairs[0, 1] - 2 / (nu * nu)).is_zero()

    def test_cocycle_rejects_non_vertex_images(self):
        params = AffineParams.generic()
        ctx = params.ctx
        data = screening_ops(params)
        bad = ScreeningData(
            params,
            data.screen,
            {
                "E": data.images["E"],
                "H": data.images["H"],
                "F": FieldExpr.field(ctx, "gamma", 0),
            },
            data.label_shift,
        )
        with pytest.raises(ValueError, match="proportional to"):
            ScreeningCochains(bad, 1)

    @pytest.mark.parametrize("name", ["E", "H"])
    def test_cocycle_rejects_nonzero_companion_images(self, name):
        # the assembly maps only F<n> terms to Witt elements, so a nonzero E or
        # H image would be dropped from the components though loop_image_coeff reads it
        data = screening_ops(AffineParams.generic())
        images = dict(data.images)
        images[name] = images["F"]
        bad = ScreeningData(data.params, data.screen, images, data.label_shift)
        assert not bad.loop_image_coeff(
            LoopElement.basis(data.ctx, name, 0), 0, wakimoto_space(data.params).vacuum()
        ).is_zero()
        with pytest.raises(ValueError, match="zero E and H companion images"):
            ScreeningCochains(bad, 1)


class TestCochainWindows:
    def test_loop_shift_past_window_raises(self):
        params = AffineParams.generic()
        ctx = params.ctx
        data = screening_ops(params)
        fam = ScreeningCochains(data, 1, window_halfwidth=2, mode_bound=2)
        with pytest.raises(ValueError, match="window exceeded"):
            fam.residual([LoopElement.basis(ctx, "F", -5)], fam.source.vacuum())

    def test_collapsed_window_raises(self):
        # at cap -1 the only term the row [F<0>] reads is the top component of
        # F<0> vac at degree -1, above the row range (-inf, -2): it raises
        params = AffineParams.generic()
        ctx = params.ctx
        data = screening_ops(params)
        F0 = LoopElement.basis(ctx, "F", 0)
        fam = ScreeningCochains(data, 1, window_halfwidth=-1)
        vac = fam.source.vacuum()
        assert [sum(e) for _, e in fam.component([], fam.act_source(F0, vac)).terms] == [-1]
        with pytest.raises(ValueError, match="window exceeded"):
            fam.residual([F0], vac)
        # a row whose components all vanish is a true zero and does not raise:
        # at cap -2 every component on the vacuum is empty, and E and H have
        # no Witt image, so the components of [E<0>, F<0>, H<0>] are too
        assert ScreeningCochains(data, 1, window_halfwidth=-2).residual([F0], vac).is_zero()
        two = ScreeningCochains(data, 2, window_halfwidth=1)
        row = [LoopElement.basis(ctx, "E", 0), F0, LoopElement.basis(ctx, "H", 0)]
        assert two.residual(row, vac).is_zero()

    def test_doubled_target_action_shows_in_the_vacuum_rows(self):
        # mutation: the benchmark's family with its target action doubled.
        # Every row below reads the action on a component with terms in its
        # range, so each must now be nonzero
        data = screening_ops(AffineParams.generic())
        fam = ScreeningCochains(data, 2, window_halfwidth=1, mode_bound=2)
        act = fam.act_target
        fam.act_target = lambda x, v: 2 * act(x, v)
        L = lambda name, n: LoopElement.basis(fam.ctx, name, n)  # noqa: E731
        combo = L("F", 1) + QQ(-2) * L("H", 0)
        vac = fam.source.vacuum()
        for xs in ([L("F", 0)], [L("F", 1)], [combo], [L("F", 0), combo], [L("H", 0)]):
            assert not fam.residual(xs, vac).is_zero(), xs

    def test_doubled_target_action_shows_in_the_depth_four_rows(self):
        # the same mutation on the three-slot family of screening_cocycle(3):
        # its depth-(slots + 1) rows vanish intact and read nonzero mutated
        data = screening_ops(AffineParams.generic())
        fam = ScreeningCochains(data, 3, window_halfwidth=2, mode_bound=2)
        L = lambda name, n: LoopElement.basis(fam.ctx, name, n)  # noqa: E731
        vac = fam.source.vacuum()
        rows = [[L("F", 1), L("F", 0), L("F", -1), last] for last in (L("F", 2), L("H", 0))]
        assert all(fam.residual(xs, vac).is_zero() for xs in rows)
        act = fam.act_target
        fam.act_target = lambda x, v: 2 * act(x, v)
        for xs in rows:
            assert not fam.residual(xs, vac).is_zero(), xs

    def test_single_slot_row_zero(self):
        params = AffineParams.generic()
        ctx = params.ctx
        data = screening_ops(params)
        fam = ScreeningCochains(data, 1, window_halfwidth=3)
        vac = fam.source.vacuum()
        assert not fam.component([], vac).is_zero()
        assert fam.residual([LoopElement.basis(ctx, "F", 1)], vac).is_zero()

    def test_slots_below_one_rejected(self):
        data = screening_ops(AffineParams.generic())
        with pytest.raises(ValueError, match="at least one slot"):
            ScreeningCochains(data, 0)


class TestCochainValues:
    def test_one_slot_components_match_field_coefficients(self):
        """Top and depth-one values against the plain coefficient families.

        The top form at z^e is the screening coefficient S(e), and the
        F<n> component at z^e the companion coefficient G(e - n).
        """
        params = AffineParams.generic()
        ctx = params.ctx
        data = screening_ops(params)
        fam = ScreeningCochains(data, 1, window_halfwidth=2)
        vac = fam.source.vacuum()
        probes = [
            vac,
            osc_apply(("as", -1), vac),
            osc_apply(("b", -1), osc_apply(("a", -1), vac)),
        ]
        zero = fam.target.zero()
        nonzero = 0
        for u in probes:
            top = fam.component([], u).terms
            for e in range(-2, 3):
                want = apply_field_coeff(data.screen, e, u)
                assert top.get(((0,), (e,)), zero) == want
                nonzero += not want.is_zero()
            for n in (-1, 0, 1):
                comp = fam.component([LoopElement.basis(ctx, "F", n)], u).terms
                for e in range(-2, 3):
                    want = apply_field_coeff(data.image("F"), e - n, u)
                    assert comp.get(((), (e,)), zero) == want
                    nonzero += not want.is_zero()
        assert nonzero > 20

    def test_component_rejects_a_foreign_vector(self):
        fam = ScreeningCochains(screening_ops(AffineParams.generic()), 1, window_halfwidth=1)
        foreign = fam.target.vacuum()
        with pytest.raises(ValueError, match="the family expects") as err:
            fam.component([], foreign)
        assert repr(fam.source) in str(err.value) and repr(fam.target) in str(err.value)
        with pytest.raises(ValueError, match="the family expects"):
            fam.residual([], foreign)


@pytest.fixture(scope="module")
def rational_cochains():
    """One- and two-slot families at (nu, chi) = (1, 1), sharing their caches across tests.

    The twist -chi/nu^2 is -1 at each puncture and the pair weight 2/nu^2 is 2.
    """
    data = screening_ops(AffineParams(ParameterContext(()), nu=QQ(1), chi=QQ(1)))
    return {slots: ScreeningCochains(data, slots, window_halfwidth=2) for slots in (1, 2)}


def _charge_block_units(space, energy_max):
    """Unit vectors of the (energy, charge) blocks, energy <= energy_max, charge -1..1."""
    one = space.ctx.one()
    return [
        FockVector(space, {mon: one})
        for e in range(energy_max + 1)
        for q in (-1, 0, 1)
        for mon in space.block_basis(e, q)
    ]


def _current_modes(ctx, n_max):
    return [
        LoopElement.basis(ctx, name, n) for name in "EHF" for n in range(-n_max, n_max + 1)
    ]


class TestResidueIntertwiner:
    @pytest.mark.parametrize(
        "slots, energy_max, n_max, units, nonzero", [(1, 2, 2, 25, 25), (2, 1, 1, 8, 3)]
    )
    def test_residue_commutes_with_currents(
        self, rational_cochains, slots, energy_max, n_max, units, nonzero
    ):
        fam = rational_cochains[slots]
        pairs = {(0, 1): 2} if slots == 2 else {}
        assert fam.residue_exponents() == ((-1,) * slots, pairs)
        basis = _charge_block_units(fam.source, energy_max)
        assert len(basis) == units
        for x in _current_modes(fam.ctx, n_max):
            for u in basis:
                assert fam.intertwining_defect(x, u).is_zero(), (x, u)
        assert sum(not fam.residue(u).is_zero() for u in basis) == nonzero

    def test_off_resonance_read_breaks_commutation(self, rational_cochains):
        # negative control: read the top component at kappa + 1, one exponent off
        fam = rational_cochains[1]

        def off(u):
            got = residue_functional(fam.component([], u), (0,), {})
            return fam.target.zero() if got is None else got

        broken = 0
        for x in _current_modes(fam.ctx, 2):
            for u in _charge_block_units(fam.source, 2):
                defect = fam.act_target(x, off(u)) - off(fam.act_source(x, u))
                broken += not defect.is_zero()
        assert broken == 87


def _word(name, n=0):
    return ("gen", name, n)


def _br(a, b):
    return ("br", a, b)


class TestDescentHelpers:
    def test_word_reduction(self):
        from screenops.wakimoto_screenings import _word_reduce

        ctx = ParameterContext(("nu", "chi"))
        got = _word_reduce(ctx, _br(_word("H"), _word("F")))
        assert (got - (QQ(-2) * LoopElement.basis(ctx, "F", 0))).is_zero()
        central = _word_reduce(ctx, _br(_word("E", 1), _word("F", -1)))
        want = LoopElement(ctx, {("H", 0): ctx.one(), "c": ctx.one()})
        assert (central - want).is_zero()

    def test_word_application_matches_reduction(self, setup):
        from screenops.wakimoto_screenings import _word_apply, _word_reduce

        params, space, act = setup
        ctx = params.ctx
        vac = space.vacuum()
        word = _br(_word("H", 1), _word("F", -1))
        got = _word_apply(act, word, vac)
        want = act.apply_element(_word_reduce(ctx, word), vac)
        assert got == want


PASS, XFAIL = "PASS", "EXPECTED-FAIL"


def _all_green(results, expected):
    """Every check is healthy, and the battery reports exactly ``expected``:
    its ordered (check ID, status) pairs, controls included."""
    assert all(r.ok for r in results), [
        (r.check_id, r.status, r.witness) for r in results if not r.ok
    ]
    assert [(r.check_id, r.status) for r in results] == expected


@pytest.fixture(scope="module")
def current_algebra():
    return verify_current_algebra(mode_max=4)


@pytest.fixture(scope="module")
def screening_regularity():
    return verify_screening_regularity(mode_max=5)


@pytest.fixture(scope="module")
def screened_brackets():
    """The merged screened-bracket battery, run once, with every polynomial
    gcd it takes recorded."""
    calls = []
    gcd = ParamPolynomial.gcd

    def counting_gcd(a, b):
        calls.append((a, b))
        return gcd(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ParamPolynomial, "gcd", counting_gcd)
        results = verify_screened_current_brackets()
    return results, calls


class TestBatteries:
    def test_current_algebra_full_size(self, current_algebra):
        _all_green(current_algebra, [
            ("current-ope-table", PASS),
            ("current-modes-core", PASS),
            ("current-modes-deep", PASS),
            ("current-route-agreement", PASS),
            ("current-modes-blocks", PASS),
            ("current-wrong-level", XFAIL),
            ("current-drop-boson", XFAIL),
        ])

    def test_deep_anchor_states_probe_reach(self, current_algebra):
        space = wakimoto_space(AffineParams.generic())
        mons = [mon for vec in _deep_probes(space) for mon in vec.terms]
        energy = max(monomial_energy(mon) for mon in mons)
        charge = max(abs(monomial_charge(mon)) for mon in mons)
        (deep,) = [r for r in current_algebra if r.check_id == "current-modes-deep"]
        assert deep.anchor == (
            "mode brackets close on probes reaching energy %d and charge %d" % (energy, charge)
        )

    def test_screening_contractions(self, screening_regularity):
        _all_green(screening_regularity[:5], [
            ("screen-pole-table", PASS),
            ("screen-exponent-unique", PASS),
            ("screen-derivative-identity", PASS),
            ("screen-collapse", PASS),
            ("screen-wrong-exponent", XFAIL),
        ])

    def test_screening_regularity_full_size(self, screening_regularity):
        _all_green(screening_regularity[5:], [
            ("screen-ope-poles", PASS),
            ("screen-ope-regular", PASS),
            ("screen-typing", PASS),
            ("screen-mode-transport", PASS),
            ("screen-mode-invisible", PASS),
            ("screen-drop-twist", XFAIL),
        ])

    def test_collapse_and_poles_read_one_ope(self, monkeypatch):
        # a wrong simple pole in the one (F, screen) product fails both
        # checks that read it
        params = AffineParams.generic()
        f_text = wakimoto_current("F", params).render()
        screen_text = screening_ops(params).screen.render()
        ope = wakimoto_screenings.wick_ope
        pair_calls = []

        def broken(left, right):
            out = ope(left, right)
            if (left.render(), right.render()) == (f_text, screen_text):
                pair_calls.append(out)
                out.table[1] = out.pole(1) + out.pole(2)
            return out

        monkeypatch.setattr(wakimoto_screenings, "wick_ope", broken)
        status = {r.check_id: r.status for r in verify_screening_regularity(mode_max=1)}
        assert len(pair_calls) == 1
        assert status["screen-collapse"] == "FAIL"
        assert status["screen-ope-poles"] == "FAIL"
        assert status["screen-pole-table"] == "PASS"

    def test_screened_current_brackets(self, screened_brackets):
        results, _ = screened_brackets
        _all_green(results, [
            ("screened-residues", PASS),
            ("screened-pole-shape", PASS),
            ("screened-bracket-ope", PASS),
            ("screened-bracket-modes", PASS),
            ("screened-wrong-structure", XFAIL),
            ("descent-tree-pairs", PASS),
            ("descent-specializations", PASS),
            ("descent-conjecture-evidence", PASS),
            ("descent-wrong-reduction", XFAIL),
        ])

    def test_screened_current_brackets_never_take_a_gcd(self, screened_brackets):
        # every denominator here is a power of nu, which the monomial step
        # of scalar reduction cancels without a polynomial gcd
        _, calls = screened_brackets
        assert calls == []

    def test_descent(self, screened_brackets):
        # descent of the extended companion family to the quotient: bracket
        # trees, fixed specializations, conjecture evidence and its control
        results, _ = screened_brackets
        _all_green([r for r in results if r.check_id.startswith("descent-")], [
            ("descent-tree-pairs", PASS),
            ("descent-specializations", PASS),
            ("descent-conjecture-evidence", PASS),
            ("descent-wrong-reduction", XFAIL),
        ])

    def test_conjecture_evidence_reads_the_residue_verdicts(self, monkeypatch):
        # a nonzero residue defect for (H, F) fails the bracket check and
        # the evidence check that reads the same per-pair verdict
        defect = wakimoto_screenings._companion_residue_defect

        def broken(opes, data, x, y):
            out = defect(opes, data, x, y)
            return out + data.image("F") if (x, y) == ("H", "F") else out

        monkeypatch.setattr(wakimoto_screenings, "_companion_residue_defect", broken)
        checks = {r.check_id: r for r in verify_screened_current_brackets()}
        assert checks["screened-pole-shape"].status == "PASS"
        assert checks["screened-bracket-ope"].status == "FAIL"
        assert checks["screened-bracket-ope"].witness.startswith("(H,F): ")
        assert checks["descent-conjecture-evidence"].status == "FAIL"
        assert checks["descent-conjecture-evidence"].witness == "(H,F)"

    def test_screening_cocycle_one_slot(self):
        _all_green(screening_cocycle(1), [
            ("cocycle-1-nonvacuous", PASS),
            ("cocycle-1-rows", PASS),
        ])

    def test_screening_cocycle_two_slots(self):
        _all_green(screening_cocycle(2), [
            ("cocycle-2-nonvacuous", PASS),
            ("cocycle-2-rows", PASS),
            ("cocycle-2-drop-pairs", XFAIL),
        ])

    def test_invalid_slot_count(self):
        with pytest.raises(ValueError, match="slots"):
            screening_cocycle(4)
