"""Checks for mode-indexed intertwining operators and their cochain families."""

import itertools
from fractions import Fraction

import pytest

from screenops.forms import Connection, LaurentForm, cleared_d
from screenops.kacmoody import CartanData, VermaModule, br, gen
from screenops.scalars import ParameterContext
from screenops.verma_screenings import (
    ReflectionCochains,
    ScreeningFamily,
    ToyModule,
    ToyScreening,
    ToyVector,
    residue_functional,
    toy_uniqueness_scan,
)

E, H, F = ("e", 0), ("h", 0), ("f", 0)


def toy_ctx():
    return ParameterContext(("lam",))


def op_bracket(scr, x, y, n, vec):
    """[x, V_n(y)] as an operator: act-after minus act-before."""
    inner = scr.companion(y, n, vec)
    return scr.target.act(x, inner) - scr.companion(y, n, scr.source.act(x, vec))


class TestToyModel:
    def test_module_relations(self):
        ctx = toy_ctx()
        lam = ctx.param("lam")
        mod = ToyModule(ctx, lam - 1)
        for a in range(5):
            vec = ToyVector(mod, {a: ctx.one()})
            assert mod.h(vec) == (lam - 1 - 2 * a) * vec
            ef = mod.e(mod.f(vec))
            fe = mod.f(mod.e(vec))
            assert ef - fe == mod.h(vec)

    def test_raising_commutator_closed_form(self):
        ctx = toy_ctx()
        lam = ctx.param("lam")
        scr = ToyScreening(ctx, lam)
        lam_src = -1 * lam
        for a in range(4):
            vec = ToyVector(scr.source, {a: ctx.one()})
            for n in range(4):
                got = scr.commutator(E, n, vec)
                coeff = -(n * n) + (lam - 2 * a) * n + a * (lam - lam_src)
                want = (
                    ToyVector(scr.target, {a + n - 1: coeff})
                    if a + n >= 1
                    else scr.target.zero()
                )
                assert got == want

    def test_modewise_commutation_law(self):
        ctx = toy_ctx()
        scr = ToyScreening(ctx, ctx.param("lam"))
        for tree in (E, H, F):
            for a in range(4):
                vec = ToyVector(scr.source, {a: ctx.one()})
                for n in range(4):
                    assert scr.commutation_defect(tree, n, vec).is_zero()

    def test_companion_operator_brackets(self):
        ctx = toy_ctx()
        lam = ctx.param("lam")
        scr = ToyScreening(ctx, lam)
        for a in range(4):
            vec = ToyVector(scr.source, {a: ctx.one()})
            for n in range(4):
                cE = lambda c: (
                    ToyVector(scr.target, {a + n - 1: c}) if a + n >= 1 else scr.target.zero()
                )
                assert op_bracket(scr, H, E, n, vec) == cE(-2 * (n + 2 * a) * (n - lam - 1))
                assert op_bracket(scr, F, E, n, vec) == -1 * scr.companion(H, n, vec)
                assert op_bracket(scr, E, H, n, vec) == cE(-2 * (n + 2 * a) * (n - lam))
                assert op_bracket(scr, F, H, n, vec).is_zero()

    def test_companion_respects_lie_relations(self):
        # the recursive bracket rule must reproduce the closed generator
        # formulas on [E,F] = H, [H,E] = 2E, [H,F] = -2F
        ctx = toy_ctx()
        scr = ToyScreening(ctx, ctx.param("lam"))
        for a in range(3):
            vec = ToyVector(scr.source, {a: ctx.one()})
            for n in range(3):
                assert scr.companion(br(E, F), n, vec) == scr.companion(H, n, vec)
                assert scr.companion(br(H, E), n, vec) == 2 * scr.companion(E, n, vec)
                assert scr.companion(br(H, F), n, vec) == -2 * scr.companion(F, n, vec)
                assert scr.commutation_defect(br(E, F), n, vec).is_zero()

    def test_uniqueness_scan(self):
        scan = toy_uniqueness_scan()
        assert scan["screening_branch"]["valid"]
        assert scan["degenerate_branch"]["valid"]
        constraints = scan["constraints"]
        assert set(constraints) == {(0, 1), (1, 1), (1, 0), (0, 0)}
        ctx = next(iter(constraints.values())).context
        lam, lam_src, alpha, beta0, beta1 = (
            ctx.param(s) for s in ("lam", "lam_src", "alpha", "beta0", "beta1")
        )
        assert constraints[(1, 1)] == beta1 - 2
        assert constraints[(0, 1)] == lam - alpha + beta0
        assert constraints[(1, 0)] == lam - lam_src - alpha * beta1
        assert constraints[(0, 0)] == -1 * (alpha * beta0)

    def test_uniqueness_branches_are_exhaustive(self):
        # a generic third choice violates at least one constraint
        scan = toy_uniqueness_scan()
        constraints = scan["constraints"]
        ctx = next(iter(constraints.values())).context
        bad = {
            "alpha": ctx.scalar(1),
            "lam_src": ctx.param("lam"),
            "beta0": ctx.zero(),
            "beta1": ctx.scalar(2),
        }
        values = [c.substitute(bad, target=ctx) for c in constraints.values()]
        assert any(not v.is_zero() for v in values)


class TestGeneralScreening:
    def test_rank_one_matches_toy(self):
        ctx = toy_ctx()
        lam = ctx.param("lam")
        toy = ToyScreening(ctx, lam)
        fam = ScreeningFamily.from_weight(CartanData.sl2(), (lam,), 0, ctx)

        def lift(toyvec, module):
            return module.from_words({(0,) * a: c for a, c in toyvec.comps.items()})

        for a in range(4):
            src = ToyVector(toy.source, {a: ctx.one()})
            for n in range(3):
                assert lift(toy.apply(n, src), fam.target) == fam.apply(n, lift(src, fam.source))
                for tree in (E, H, F):
                    assert lift(toy.companion(tree, n, src), fam.target) == fam.companion(
                        tree, n, lift(src, fam.source)
                    )

    @pytest.mark.parametrize(
        "cd,depth_cap",
        [
            (CartanData.sl2(), 3),
            (CartanData.sl3(), 2),
            (CartanData.b2(), 2),
        ],
    )
    def test_modewise_commutation_generators(self, cd, depth_cap):
        names = tuple("lam%d" % i for i in range(cd.rank))
        ctx = ParameterContext(names)
        hw = tuple(ctx.param(s) for s in names)
        for i in range(cd.rank):
            fam = ScreeningFamily.from_weight(cd, hw, i, ctx)
            for u in _basis_up_to(fam.source, depth_cap):
                for kind in ("e", "h", "f"):
                    for j in range(cd.rank):
                        for n in range(3):
                            defect = fam.commutation_defect(gen(kind, j), n, u)
                            assert defect.is_zero(), (i, kind, j, n)

    def test_commutation_extends_to_brackets(self):
        cd = CartanData.sl3()
        ctx = ParameterContext(("lam0", "lam1"))
        hw = (ctx.param("lam0"), ctx.param("lam1"))
        fam = ScreeningFamily.from_weight(cd, hw, 0, ctx)
        trees = [
            br(gen("e", 0), gen("e", 1)),
            br(gen("f", 0), gen("f", 1)),
            br(gen("e", 0), gen("f", 0)),
            br(gen("h", 1), gen("e", 0)),
            br(gen("e", 0), br(gen("e", 0), gen("e", 1))),  # vanishing double bracket
        ]
        for u in _basis_up_to(fam.source, 2):
            for tree in trees:
                for n in range(3):
                    assert fam.commutation_defect(tree, n, u).is_zero()

    def test_companion_respects_lie_relations(self):
        cd = CartanData.sl3()
        ctx = ParameterContext(("lam0", "lam1"))
        hw = (ctx.param("lam0"), ctx.param("lam1"))
        fam = ScreeningFamily.from_weight(cd, hw, 0, ctx)
        u = fam.source.vacuum()
        for n in range(3):
            assert fam.companion(br(gen("e", 0), gen("f", 0)), n, u) == fam.companion(
                gen("h", 0), n, u
            )
            two_e = 2 * fam.companion(gen("e", 0), n, u)
            assert fam.companion(br(gen("h", 0), gen("e", 0)), n, u) == two_e

    def test_cartan_pairing_orientation(self):
        # the asymmetric Cartan matrix distinguishes a(j,i) from a(i,j): the
        # flipped pairing breaks the commutation law for the cross generator
        cd = CartanData.b2()
        assert cd.a(0, 1) != cd.a(1, 0)
        ctx = ParameterContext(("lam0", "lam1"))
        hw = (ctx.param("lam0"), ctx.param("lam1"))
        fam = ScreeningFamily.from_weight(cd, hw, 0, ctx)
        tree = gen("h", 1)
        u = fam.source.vacuum()
        assert fam.commutation_defect(tree, 1, u).is_zero()
        flipped = cd.a(0, 1) * fam.apply(1, u)
        wrong = fam.commutator(tree, 1, u) - (fam.kappa - 1) * flipped
        assert not wrong.is_zero()

    def test_source_weight_validation(self):
        cd = CartanData.sl2()
        ctx = toy_ctx()
        target = VermaModule(cd, (ctx.param("lam"),), ctx)
        with pytest.raises(ValueError):
            ScreeningFamily(target, target, 0)


def _basis_up_to(module, cap):
    out = []
    rank = module.cd.rank
    for total in range(cap + 1):
        for depth in _compositions(total, rank):
            out.extend(module.basis_vectors(depth))
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


class TestReflectionCochains:
    def test_rank_one_total_residuals(self):
        ctx = toy_ctx()
        rc = ReflectionCochains(CartanData.sl2(), (ctx.param("lam"),), [0], ctx, mode_max=4)
        gens = [gen(k, 0) for k in ("e", "h", "f")]
        for u in _basis_up_to(rc.source, 3):
            assert rc.residual([], u).is_zero()
            for x in gens:
                assert rc.residual([x], u).is_zero(), ("depth1", x)
            for x, y in itertools.combinations(gens, 2):
                assert rc.residual([x, y], u).is_zero(), ("depth2", x, y)

    def test_rank_one_depth1_components_nontrivial(self):
        ctx = toy_ctx()
        rc = ReflectionCochains(CartanData.sl2(), (ctx.param("lam"),), [0], ctx, mode_max=3)
        u = rc.source.vacuum()
        plain = rc.component([], u)
        replaced = rc.component([gen("e", 0)], u)
        assert plain.nonzero_terms()
        assert replaced.nonzero_terms()
        # unreplaced slots carry dz and strictly negative exponents
        for subset, exps, _ in plain.nonzero_terms():
            assert subset == (0,) and exps[0] <= -1
        for subset, exps, _ in replaced.nonzero_terms():
            assert subset == () and exps[0] <= 0

    def test_window_stability_under_mode_cap(self):
        ctx = toy_ctx()
        small_rc, large_rc = (
            ReflectionCochains(CartanData.sl2(), (ctx.param("lam"),), [0], ctx, mode_max=cap)
            for cap in (2, 4)
        )
        small = small_rc.component([gen("e", 0)], small_rc.source.vacuum())
        large = large_rc.component([gen("e", 0)], large_rc.source.vacuum())
        for subset, exps, value in small.nonzero_terms():
            match = [v for s, e, v in large.nonzero_terms() if (s, e) == (subset, exps)]
            assert match and (match[0] - value).is_zero()

    def test_two_slot_total_residuals(self):
        cd = CartanData.sl3()
        ctx = ParameterContext(("lam0", "lam1"))
        hw = (ctx.param("lam0"), ctx.param("lam1"))
        rc = ReflectionCochains(cd, hw, [0, 1], ctx, mode_max=2)
        gens = [gen(k, i) for k in ("e", "f") for i in range(2)] + [gen("h", 0)]
        us = [rc.source.vacuum()] + rc.source.basis_vectors((1, 0)) + rc.source.basis_vectors((0, 1))
        for u in us:
            assert rc.residual([], u).is_zero()
            for x in gens:
                assert rc.residual([x], u).is_zero(), ("depth1", x)
        pairs = [
            (gen("e", 0), gen("e", 1)),
            (gen("e", 0), gen("f", 0)),
            (gen("h", 0), gen("e", 1)),
            (gen("f", 0), gen("f", 1)),
        ]
        u = rc.source.vacuum()
        for x, y in pairs:
            assert rc.residual([x, y], u).is_zero(), ("depth2", x, y)
        triples = [
            (gen("e", 0), gen("e", 1), gen("f", 0)),
            (gen("e", 0), gen("h", 0), gen("f", 1)),
        ]
        for xs in triples:
            assert rc.residual(list(xs), u).is_zero(), ("depth3",) + xs

    def test_two_slot_depth1_nontrivial(self):
        cd = CartanData.sl3()
        ctx = ParameterContext(("lam0", "lam1"))
        hw = (ctx.param("lam0"), ctx.param("lam1"))
        rc = ReflectionCochains(cd, hw, [0, 1], ctx, mode_max=2)
        u = rc.source.vacuum()
        # on the vacuum the slot for the first reflection only reacts to the
        # matching raising generator, so e_1 lights up both dz sectors
        lf = rc.component([gen("e", 1)], u)
        assert lf.nonzero_terms()
        subsets = {subset for subset, _, _ in lf.nonzero_terms()}
        assert subsets == {(0,), (1,)}


class TestResidueIntertwiner:
    def test_rank_one_integer_weight(self):
        ctx = ParameterContext(())
        rc = ReflectionCochains(CartanData.sl2(), (Fraction(3),), [0], ctx)
        assert rc.residue_exponents() == [3]
        for u in _basis_up_to(rc.source, 4):
            for kind in ("e", "h", "f"):
                assert rc.intertwining_defect(gen(kind, 0), u).is_zero()
        image = rc.residue(rc.source.vacuum())
        assert image == rc.target.from_words({(0, 0, 0): 1})
        assert not image.is_zero()

    def test_rank_one_shifted_exponent_fails(self):
        # one more lowering step than the pairing dictates is not a module map
        ctx = ParameterContext(())
        rc = ReflectionCochains(CartanData.sl2(), (Fraction(3),), [0], ctx)
        fam = rc.slots[0]
        vac = rc.source.vacuum()
        lhs = rc.target.act(gen("e", 0), fam.apply(4, vac))
        rhs = fam.apply(4, rc.source.act(gen("e", 0), vac))
        assert not (lhs - rhs).is_zero()

    def test_two_slot_dominant_weight(self):
        cd = CartanData.sl3()
        ctx = ParameterContext(())
        rc = ReflectionCochains(cd, (Fraction(2), Fraction(1)), [0, 1], ctx)
        assert rc.residue_exponents() == [2, 3]
        trees = [gen(k, i) for k in ("e", "h", "f") for i in range(2)]
        trees.append(br(gen("e", 0), gen("e", 1)))
        trees.append(br(gen("f", 0), gen("f", 1)))
        for u in _basis_up_to(rc.source, 2):
            for tree in trees:
                assert rc.intertwining_defect(tree, u).is_zero(), tree
        image = rc.residue(rc.source.vacuum())
        assert image == rc.target.from_words({(1, 1, 1, 0, 0): 1})
        assert not image.is_zero()

    def test_nonintegral_weight_rejected(self):
        ctx = ParameterContext(("lam",))
        rc = ReflectionCochains(CartanData.sl2(), (ctx.param("lam"),), [0], ctx)
        with pytest.raises(ValueError):
            rc.residue(rc.source.vacuum())

    def test_residue_matches_residue_functional(self):
        # threading the modes kappa_p slot by slot reads the same coefficient
        # as the residue functional on the evaluated top component
        ctx = ParameterContext(())
        cases = [
            (CartanData.sl2(), (Fraction(3),), [0], 4),
            (CartanData.sl3(), (Fraction(2), Fraction(1)), [0, 1], 2),
        ]
        for cd, hw, word, cap in cases:
            kappas = ReflectionCochains(cd, hw, word, ctx).residue_exponents()
            rc = ReflectionCochains(cd, hw, word, ctx, mode_max=max(kappas) + 1)
            nonzero = 0
            for u in _basis_up_to(rc.source, cap):
                form = rc.component([], u)
                got = residue_functional(form, kappas)
                want = rc.residue(u)
                assert want.is_zero() if got is None else got == want
                nonzero += not want.is_zero()
            assert nonzero


class TestResidueFunctional:
    def test_kills_twisted_exact_forms(self):
        # residues of twisted-exact forms vanish, so the functional factors
        # through top cohomology
        kappas = [2, 3]
        conn = Connection([Fraction(2), Fraction(3)])
        window = ((-6, 3), (-6, 3))
        rng_terms = {
            ((0,), (-2, 1)): Fraction(5),
            ((0,), (-4, -1)): Fraction(-3, 2),
            ((1,), (1, -3)): Fraction(7),
            ((1,), (-5, 0)): Fraction(2, 3),
        }
        eta = LaurentForm(2, rng_terms, window)
        deta = cleared_d(eta, conn)
        val = residue_functional(deta, kappas)
        assert val is None or val == 0

    def test_reads_top_coefficient(self):
        form = LaurentForm(
            2,
            {((0, 1), (-3, -4)): Fraction(11), ((0, 1), (-1, -1)): Fraction(5)},
            ((-6, 0), (-6, 0)),
        )
        assert residue_functional(form, [2, 3]) == Fraction(11)
        with pytest.raises(ValueError):
            residue_functional(form, [7, 3])
