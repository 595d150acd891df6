"""Tests of the benchmark itself: tracer arithmetic, wrapper hygiene, inputs.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from fractions import Fraction

import pytest

import hostclock
import workloads
from screenops import fields, fock, forms, scalars
from screenops.checks import control, passed
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(dt):
        clock.advance(dt)

    def mid():
        clock.advance(1)
        tracer.call("leaf", leaf, (2,), {})
        clock.advance(3)
        tracer.call("leaf", leaf, (4,), {})

    with tracer.span("root"):
        clock.advance(5)
        tracer.call("mid", mid, (), {}, span=True)
        clock.advance(0.5)

    totals = tracer.totals()
    assert totals["leaf"]["calls"] == 2
    assert totals["leaf"]["self_s"] == 6
    assert totals["mid"]["total_s"] == 10
    assert totals["mid"]["self_s"] == 4
    assert totals["root"]["total_s"] == 15.5
    assert totals["root"]["self_s"] == 5.5
    # leaves are aggregated only; the two span records nest
    assert tracer.spans == [(0, "root", 0.0, 15.5, None), (1, "mid", 5.0, 15.0, 0)]
    assert set(tracer.stats) == {("root", None), ("mid", "root"), ("leaf", "mid")}


def test_outermost_flag_and_failure_counters():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def recurse(n):
        clock.advance(1)
        if n:
            tracer.call("rec", recurse, (n - 1,), {}, outermost=True)

    def divide(ok):
        if not ok:
            raise ValueError("not divisible")

    tracer.call("rec", recurse, (3,), {}, outermost=True)
    for ok in (True, False, False, True):
        if ok:
            tracer.call("div", divide, (ok,), {}, flag=lambda args: args[0])
        else:
            with pytest.raises(ValueError):
                tracer.call("div", divide, (ok,), {}, flag=lambda args: args[0])
    totals = tracer.totals()
    assert totals["rec"]["calls"] == 1 and totals["rec"]["self_s"] == 4
    assert totals["div"]["calls"] == 4
    assert totals["div"]["failed"] == 2 and totals["div"]["flagged"] == 2


def _sample_computation():
    ctx = scalars.ParameterContext(("x", "y"))
    x, y = ctx.param("x"), ctx.param("y")
    a = (x + 1) * (y - 2) / (x - y)
    b = a * a + Fraction(3, 2) * x
    g = (x.num * x.num - y.num * y.num).gcd(x.num + y.num)
    space = fock.FockSpace(fock.OscSpec(ctx), x)
    vec = fock.osc_apply(("b", -1), space.vacuum())
    image = fields.apply_field_coeff(fields.p_field(ctx), -1, vec)
    return str(a), str(b), str(g), repr(vec), repr(image)


def test_wrappers_leave_results_unchanged_and_are_removed():
    originals = {
        "ParamScalar.__mul__": scalars.ParamScalar.__dict__["__mul__"],
        "ParamPolynomial.exact_div": scalars.ParamPolynomial.__dict__["exact_div"],
        "fock.osc_apply": fock.osc_apply,
        "forms.cleared_d": forms.cleared_d,
    }
    expected = _sample_computation()
    tracer = Tracer()
    tracer.install()
    try:
        # patched where defined and where imported
        assert fields.osc_apply is fock.osc_apply is not originals["fock.osc_apply"]
        traced = _sample_computation()
    finally:
        tracer.uninstall()
    assert traced == expected
    totals = tracer.totals()
    for name in ("scalars.mul", "scalars.add", "scalars.gcd", "fock.osc_apply",
                 "fields.apply_field_coeff"):
        assert totals[name]["calls"] > 0, name
    assert scalars.ParamScalar.__dict__["__mul__"] is originals["ParamScalar.__mul__"]
    assert scalars.ParamScalar.__rmul__ is originals["ParamScalar.__mul__"]
    assert scalars.ParamPolynomial.__dict__["exact_div"] is originals["ParamPolynomial.exact_div"]
    assert fock.osc_apply is fields.osc_apply is originals["fock.osc_apply"]
    assert forms.cleared_d is originals["forms.cleared_d"]
    assert _sample_computation() == expected


def test_same_seed_rebuilds_identical_rational_forms_inputs():
    first = workloads.describe_inputs(workloads.setup_rational_forms(11))
    again = workloads.describe_inputs(workloads.setup_rational_forms(11))
    other = workloads.describe_inputs(workloads.setup_rational_forms(12))
    assert first == again
    assert first != other


def test_rational_forms_negative_control_breaks():
    inputs = workloads.setup_rational_forms(3)
    inputs["instances"] = inputs["instances"][:1]
    [(battery, results)] = workloads.run_rational_forms(inputs)
    statuses = {r.check_id: r.status for r in results}
    assert statuses == {
        "cartan-a2-0-left": "PASS",
        "cartan-a2-0-right": "PASS",
        "cartan-flip-sign": "EXPECTED-FAIL",
    }


def test_compare_verdicts_counts_every_kind_of_mismatch():
    expected = {"a": "PASS", "b": "PASS", "c": "EXPECTED-FAIL"}
    good = [("one", [passed("a", "", True), passed("b", "", True)]),
            ("two", [control("c", "", True)])]
    assert workloads.compare_verdicts(expected, good) == (3, [])
    bad = [("one", [passed("a", "", False), passed("x", "", True)]),
           ("two", [])]
    attempted, mismatches = workloads.compare_verdicts(expected, bad)
    # a fails, b and c are missing, x is unexpected, battery two is empty
    assert attempted == 5
    assert len(mismatches) == 5


def test_scale_is_reference_over_mean_sample():
    r = hostclock.REFERENCE_S
    assert hostclock.scale([r, r]) == pytest.approx(1.0)
    # a host running the reference twice as slowly halves the scaled time
    assert hostclock.scale([r, 3 * r]) == pytest.approx(0.5)


def test_sampler_samples_during_a_block_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostclock.Sampler(interval_s=0.01) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.inside_s == pytest.approx(sum(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
