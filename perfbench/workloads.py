"""The benchmark's workloads: inputs from a seed, one pass, expected verdicts.

Each workload is a ``setup(seed) -> inputs`` and a ``run(inputs, span) ->
[(battery, [CheckResult])]`` pair.  ``setup`` performs the package import
and builds every input that a pass only reads, so that the benchmark can time
it as ``setup_s``.  Cochain families memoise their top forms and weight
spaces, so a pass builds its own families: reusing them would time cache
hits from the second pass on.  ``span`` wraps each battery for the traced run
and is a no-op otherwise.

No module of ``screenops`` is imported at module level: the first import
belongs to ``setup``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# verify_current_algebra runs its deep-probe and block sections at a fixed
# size; the mode grid is the one knob, cut from the tier-1 value of 4
CURRENT_MODE_MAX = 1

# rational-forms instances per contraction depth a
FORM_INSTANCES = 6
FORM_DEPTHS = (2, 3)
FORM_SHAPE_SEED = 0


def no_span(_name):
    return contextlib.nullcontext()


def _all_zero(check_id: str, anchor: str, rows):
    """One PASS/FAIL check over ``(label, thunk)`` rows that must return zero.

    Every row runs even after a failure, so a pass does the same work on a
    broken program; the witness names the first failing row.
    """
    from screenops.checks import passed

    witness = ""
    for label, thunk in rows:
        if not thunk().is_zero() and not witness:
            witness = label
    return passed(check_id, anchor, not witness, witness)


# -- current-algebra -------------------------------------------------------------


def setup_current_algebra(seed: int) -> dict:
    from screenops.wakimoto import AffineParams

    return {"params": AffineParams.generic()}


def run_current_algebra(inputs: dict, span=no_span) -> list:
    from screenops.wakimoto import verify_current_algebra

    with span("battery.verify_current_algebra"):
        results = verify_current_algebra(mode_max=CURRENT_MODE_MAX, params=inputs["params"])
    return [("verify_current_algebra", results)]


# -- screening-cochains ------------------------------------------------------------


def setup_screening_cochains(seed: int) -> dict:
    from screenops.forms import WittElement
    from screenops.kacmoody import gen
    from screenops.scalars import ParameterContext
    from screenops.wakimoto import AffineParams, LoopElement, screening_ops

    W = WittElement.basis
    vctx = ParameterContext(("alpha", "b"))
    wcombo = WittElement({-1: Fraction(2), 2: Fraction(-3)})
    both, vac = (0, 1), (0,)
    # (slots, invariance rows, residual rows); a row is (elements, probes)
    virasoro_rows = (
        (1,
         [([W(-1)], both), ([W(0)], both), ([W(2)], both), ([wcombo], both)],
         [([], both), ([W(-2)], both), ([W(1)], both), ([wcombo], both),
          ([W(-1), W(1)], both), ([wcombo, W(0)], both)]),
        (2,
         [([W(2)], vac)],
         [([], both), ([W(1)], vac), ([W(-1), W(1)], vac),
          ([W(-1), W(0), W(1)], vac)]),
    )

    params = AffineParams.generic()
    actx = params.ctx
    L = lambda name, n: LoopElement.basis(actx, name, n)  # noqa: E731
    lcombo = L("F", 1) + Fraction(-2) * L("H", 0)
    wakimoto_rows = [
        ([], both), ([L("F", 0)], vac), ([L("F", 1)], vac), ([L("H", 0)], both),
        ([lcombo], vac), ([L("F", 1), L("F", -1)], vac), ([L("F", 0), lcombo], vac),
        ([L("E", 0), L("F", 0), L("H", 0)], vac),
        ([L("F", 1), L("F", 0), L("F", -1)], vac),
    ]

    sl2_ctx = ParameterContext(("lam",))
    sl3_ctx = ParameterContext(("lam0", "lam1"))
    return {
        "virasoro": {"ctx": vctx, "alpha": vctx.param("alpha"), "beta": vctx.param("b"),
                     "rows": virasoro_rows, "control": [W(1)]},
        "wakimoto": {"data": screening_ops(params), "rows": wakimoto_rows,
                     "control": [L("F", 0)]},
        "verma": {
            "sl2": (sl2_ctx, (sl2_ctx.param("lam"),),
                    [gen(k, 0) for k in ("e", "h", "f")]),
            "sl3": (sl3_ctx, (sl3_ctx.param("lam0"), sl3_ctx.param("lam1")),
                    [gen(k, i) for k in ("e", "f") for i in range(2)] + [gen("h", 0)]),
            "sl3_pairs": [(gen("e", 0), gen("e", 1)), (gen("e", 0), gen("f", 0)),
                          (gen("h", 0), gen("e", 1)), (gen("f", 0), gen("f", 1))],
            "sl3_triples": [(gen("e", 0), gen("e", 1), gen("f", 0)),
                            (gen("e", 0), gen("h", 0), gen("f", 1))],
        },
    }


def _virasoro_checks(inp: dict) -> list:
    from screenops.checks import control
    from screenops.fock import osc_apply
    from screenops.virasoro import VertexScreeningCochains

    ctx, alpha, beta = inp["ctx"], inp["alpha"], inp["beta"]
    out = []
    for slots, invariance, residual in inp["rows"]:
        fam = VertexScreeningCochains(ctx, alpha, beta, slots)
        vac = fam.space.vacuum()
        probes = (vac, osc_apply(("b", -1), vac))
        out.append(_all_zero(
            "virasoro-invariance-%d" % slots,
            "commutator action plus twisted Lie derivative kills the %d-slot "
            "screening product" % slots,
            [("x=%r on probe %d" % (xs[0], p),
              lambda x=xs[0], u=probes[p]: fam.invariance_defect(x, u))
             for xs, ps in invariance for p in ps]))
        out.append(_all_zero(
            "virasoro-cocycle-%d" % slots,
            "total-differential rows of the %d-slot Feigin-Fuchs cochain vanish" % slots,
            [("depth %d row %r on probe %d" % (len(xs), xs, p),
              lambda xs=xs, u=probes[p]: fam.residual(xs, u))
             for xs, ps in residual for p in ps]))
    broken = VertexScreeningCochains(ctx, alpha, beta, 2, include_pairs=False)
    res = broken.residual(inp["control"], broken.space.vacuum())
    out.append(control(
        "virasoro-cocycle-drop-pairs",
        "dropping the pair exponents breaks the two-slot cocycle",
        not res.is_zero()))
    return out


def _wakimoto_checks(inp: dict) -> list:
    from screenops.checks import control
    from screenops.fock import osc_apply
    from screenops.wakimoto import ScreeningCochains

    fam = ScreeningCochains(inp["data"], 2, window_halfwidth=1, mode_bound=2)
    vac = fam.source.vacuum()
    probes = (vac, osc_apply(("as", -1), vac))
    out = [_all_zero(
        "wakimoto-cocycle-2-rows",
        "total-differential rows of the two-slot Wakimoto screening cochain vanish",
        [("depth %d row %r on probe %d" % (len(xs), xs, p),
          lambda xs=xs, u=probes[p]: fam.residual(xs, u))
         for xs, ps in inp["rows"] for p in ps])]
    broken = ScreeningCochains(inp["data"], 2, window_halfwidth=1, include_pairs=False,
                               mode_bound=2)
    res = broken.residual(inp["control"], vac)
    out.append(control(
        "wakimoto-cocycle-2-drop-pairs",
        "dropping the pair weights breaks a depth-one row",
        not res.is_zero()))
    return out


def _verma_checks(inp: dict) -> list:
    from screenops.kacmoody import CartanData
    from screenops.verma_screenings import ReflectionCochains

    ctx, hw, gens = inp["sl2"]
    rc = ReflectionCochains(CartanData.sl2(), hw, [0], ctx, mode_max=4)
    rows = []
    for d in range(4):
        for i, u in enumerate(rc.source.basis_vectors((d,))):
            tag = "u=%d.%d" % (d, i)
            rows.append(("depth 0 at %s" % tag, lambda u=u: rc.residual([], u)))
            rows += [("depth 1 %r at %s" % (x, tag), lambda x=x, u=u: rc.residual([x], u))
                     for x in gens]
            rows += [("depth 2 %r at %s" % (xy, tag),
                      lambda xy=xy, u=u: rc.residual(list(xy), u))
                     for xy in itertools.combinations(gens, 2)]
    out = [_all_zero("reflection-sl2-rows",
                     "rank-one reflection cochain rows vanish through depth two",
                     rows)]

    ctx, hw, gens = inp["sl3"]
    rc = ReflectionCochains(CartanData.sl3(), hw, [0, 1], ctx, mode_max=2)
    vac = rc.source.vacuum()
    probes = [vac] + rc.source.basis_vectors((1, 0)) + rc.source.basis_vectors((0, 1))
    rows = []
    for i, u in enumerate(probes):
        rows.append(("depth 0 at probe %d" % i, lambda u=u: rc.residual([], u)))
        rows += [("depth 1 %r at probe %d" % (x, i), lambda x=x, u=u: rc.residual([x], u))
                 for x in gens]
    rows += [("depth %d %r at vacuum" % (len(xs), xs),
              lambda xs=xs: rc.residual(list(xs), vac))
             for xs in inp["sl3_pairs"] + inp["sl3_triples"]]
    out.append(_all_zero("reflection-sl3-rows",
                         "two-slot sl3 reflection cochain rows vanish through depth three",
                         rows))
    return out


def run_screening_cochains(inputs: dict, span=no_span) -> list:
    out = []
    for battery, checks in (("virasoro", _virasoro_checks), ("wakimoto", _wakimoto_checks),
                            ("verma", _verma_checks)):
        with span("battery." + battery):
            out.append((battery, checks(inputs[battery])))
    return out


# -- rational-forms ------------------------------------------------------------------


def _random_coeff(space, shape: random.Random, values: random.Random):
    """A rational times a Laurent monomial in the z's."""
    coeff = space.ctx.scalar(Fraction(values.choice((-4, -3, -2, -1, 1, 2, 3, 4)),
                                      values.randint(1, 3)))
    for q in range(space.nvars):
        coeff = coeff * space.z(q) ** shape.randint(-2, 2)
    return coeff


def _random_form(space, degree: int, shape: random.Random, values: random.Random):
    from screenops.forms import RationalForm

    return RationalForm(space, {
        subset: _random_coeff(space, shape, values)
        for subset in itertools.combinations(range(space.nvars), degree)})


def _random_witt(shape: random.Random, values: random.Random):
    from screenops.forms import WittElement

    return WittElement({shape.randint(-2, 2): Fraction(values.choice((-2, -1, 1, 2)))})


def setup_rational_forms(seed: int) -> dict:
    """Seeded instances of the Cartan identity for a in FORM_DEPTHS.

    The cost of an instance follows its shape (the z exponents and the Witt
    modes) and varies threefold between shapes, so the shapes come from a
    fixed stream and the seed draws every coefficient.
    """
    from screenops.forms import Connection, FormSpace
    from screenops.scalars import ParameterContext

    shape, values = random.Random(FORM_SHAPE_SEED), random.Random(seed)
    base = ParameterContext(("k1", "k2", "k3", "t"))
    space = FormSpace(base, 3)
    conn = Connection([base.param("k%d" % (q + 1)) for q in range(3)],
                      {(i, j): base.param("t") for i in range(3) for j in range(i + 1, 3)})
    instances = []
    for a in FORM_DEPTHS:
        for k in range(FORM_INSTANCES):
            fields = [_random_witt(shape, values) for _ in range(a)]
            form = (_random_form(space, 2, shape, values)
                    + _random_form(space, 3, shape, values))
            instances.append((a, k, fields, form))
    return {"conn": conn, "instances": instances}


def describe_inputs(inputs: dict) -> bytes:
    """Canonical text of the rational-forms inputs, for reproducibility checks."""
    lines = []
    for a, k, fields, form in inputs["instances"]:
        lines.append("a=%d k=%d fields=%r" % (a, k, fields))
        lines += ["  %r: %r" % (s, form.terms[s]) for s in sorted(form.terms)]
    return "\n".join(lines).encode()


def d_commutator(form, fields, conn):
    """(d o i_{x1..xa}) form = d(i..form) - (-1)^a i..(d form)."""
    inner = form
    for f in reversed(fields):
        inner = inner.contract(f)
    dform = form.d(conn)
    for f in reversed(fields):
        dform = dform.contract(f)
    return inner.d(conn) - ((-1) ** len(fields)) * dform


def expansion_terms(form, fields, conn, side: str) -> list:
    """The signed terms of one displayed expansion of d o i_{x1..xa}.

    ``left`` puts the Lie derivative outside the remaining contractions,
    ``right`` inside; bracket terms contract [x_p, x_q] in front.
    """
    a = len(fields)
    terms = []
    for p in range(a):
        rest = fields[:p] + fields[p + 1:]
        if side == "left":
            t = form
            for f in reversed(rest):
                t = t.contract(f)
            t = t.lie(fields[p], conn)
        else:
            t = form.lie(fields[p], conn)
            for f in reversed(rest):
                t = t.contract(f)
        terms.append(-1 * t if p % 2 else t)
    for p in range(a):
        for q in range(p + 1, a):
            rest = [fields[p].bracket(fields[q])] + [fields[r] for r in range(a)
                                                     if r not in (p, q)]
            t = form
            for f in reversed(rest):
                t = t.contract(f)
            sign = (-1) ** (p + q) if side == "left" else (-1) ** (p + q + 1)
            terms.append(sign * t)
    return terms


def expansion_sum(terms: list, flip: int | None = None):
    """Sum of the terms, with the sign of term ``flip`` reversed if given."""
    total = None
    for i, t in enumerate(terms):
        if i == flip:
            t = -1 * t
        total = t if total is None else total + t
    return total


def run_rational_forms(inputs: dict, span=no_span) -> list:
    from screenops.checks import control, passed

    conn = inputs["conn"]
    results = []
    with span("battery.cartan_identity"):
        control_terms = None
        for a, k, fields, form in inputs["instances"]:
            lhs = d_commutator(form, fields, conn)
            for side in ("left", "right"):
                terms = expansion_terms(form, fields, conn, side)
                ok = lhs == expansion_sum(terms)
                results.append(passed(
                    "cartan-a%d-%d-%s" % (a, k, side),
                    "d o i_{x1..x%d} equals its %s expansion" % (a, side),
                    ok,
                    "" if ok else "fields %r" % (fields,)))
                if control_terms is None:
                    control_terms = (lhs, terms)
        lhs, terms = control_terms
        flip = next(i for i, t in enumerate(terms) if not t.is_zero())
        results.append(control(
            "cartan-flip-sign",
            "flipping the sign of one nonzero expansion term breaks the identity",
            not lhs == expansion_sum(terms, flip)))
    return [("cartan_identity", results)]


WORKLOADS = {
    "current-algebra": (setup_current_algebra, run_current_algebra),
    "screening-cochains": (setup_screening_cochains, run_screening_cochains),
    "rational-forms": (setup_rational_forms, run_rational_forms),
}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def compare_verdicts(expected: dict, batteries: list) -> tuple[int, list]:
    """(checks attempted, mismatch descriptions) of one pass.

    ``expected`` maps check ID to status.  A status other than the expected
    one, a missing or unexpected ID, a repeated ID and a battery that
    returned no checks each count as one failed check.
    """
    mismatches, got = [], {}
    attempted = len(expected)
    for battery, results in batteries:
        if not results:
            attempted += 1
            mismatches.append("battery %s returned no checks" % battery)
        for r in results:
            if r.check_id in got:
                attempted += 1
                mismatches.append("%s: reported twice" % r.check_id)
            got[r.check_id] = r
    for check_id, status in expected.items():
        r = got.get(check_id)
        if r is None:
            mismatches.append("%s: missing" % check_id)
        elif r.status != status:
            mismatches.append("%s: %s, expected %s; witness: %s"
                              % (check_id, r.status, status, r.witness or "-"))
    for check_id in sorted(got.keys() - expected.keys()):
        attempted += 1
        mismatches.append("%s: unexpected check (%s)" % (check_id, got[check_id].status))
    return attempted, mismatches


def verdicts(batteries: list) -> list:
    return sorted((r.check_id, r.status) for _, results in batteries for r in results)
