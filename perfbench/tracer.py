"""Layer tracing for the benchmark's traced run.

A ``Tracer`` wraps named functions and methods of ``screenops`` from the
outside: nothing under ``src/`` knows it exists.  Every wrapped call pushes a
frame on one stack, so each call knows its parent and its self time (its
duration minus the durations of the wrapped calls it made).  Calls are
aggregated per ``(name, parent name)``; coarse boundaries additionally keep
one span record each ``(id, name, start, end, parent id)``.  The scalar
kernels run millions of times per pass, so they are aggregated only, which
keeps the trace small.

Wrappers cost time of their own.  That time falls outside the wrapped
call's clock readings, so it is charged to the parent's self time and shows
in ``trace.overhead_ratio``; untraced metrics are never timed in a process
that has had the wrappers installed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced boundary: ``attrs`` of ``owner`` (a class, or the module)."""

    name: str
    module: str
    owner: str | None
    attrs: tuple
    span: bool = False
    outermost: bool = False
    flag: Callable | None = None


def _both_rational(args) -> bool:
    """Both operands of a ParamScalar product are rational constants."""
    left, right = args
    if isinstance(right, (int, Fraction)):
        return left.is_rational()
    is_rational = getattr(right, "is_rational", None)
    return is_rational is not None and left.is_rational() and is_rational()


TARGETS = (
    Target("scalars.mul", "screenops.scalars", "ParamScalar", ("__mul__", "__rmul__"),
           flag=_both_rational),
    Target("scalars.add", "screenops.scalars", "ParamScalar", ("__add__", "__radd__")),
    Target("scalars.poly_mul", "screenops.scalars", "ParamPolynomial", ("__mul__", "__rmul__")),
    # gcd recurses through _list_gcd; only the outermost call is a boundary
    Target("scalars.gcd", "screenops.scalars", "ParamPolynomial", ("gcd",), outermost=True),
    Target("scalars.exact_div", "screenops.scalars", "ParamPolynomial", ("exact_div",)),
    Target("fock.osc_apply", "screenops.fock", None, ("osc_apply",)),
    Target("fock.vector_scale", "screenops.fock", "FockVector", ("__rmul__",)),
    Target("fock.vector_add", "screenops.fock", "FockVector", ("__add__",)),
    Target("fock.commutator_blocks", "screenops.fock", None, ("commutator_blocks",), span=True),
    Target("fields.apply_field_coeff", "screenops.fields", None, ("apply_field_coeff",)),
    Target("fields.wick_ope", "screenops.fields", None, ("wick_ope",), span=True),
    Target("fields.ope_bracket_action", "screenops.fields", None, ("ope_bracket_action",),
           span=True),
    Target("forms.cleared_d", "screenops.forms", None, ("cleared_d",), span=True),
    Target("forms.laurent_contract", "screenops.forms", "LaurentForm", ("contract",)),
    Target("forms.mul_zdiff", "screenops.forms", "LaurentForm", ("mul_zdiff",)),
    Target("forms.rational_add", "screenops.forms", "RationalForm", ("__add__",)),
    Target("forms.rational_contract", "screenops.forms", "RationalForm", ("contract",)),
    Target("forms.rational_lie", "screenops.forms", "RationalForm", ("lie",)),
    Target("forms.rational_d", "screenops.forms", "RationalForm", ("d",)),
    Target("kacmoody.verma_act", "screenops.kacmoody", "VermaModule", ("e", "f", "h", "act")),
    Target("verma_screenings.residual", "screenops.verma_screenings", "ReflectionCochains",
           ("residual",), span=True),
    Target("virasoro.virasoro_apply", "screenops.virasoro", None, ("virasoro_apply",)),
    Target("virasoro.normal_multi_vertex", "screenops.virasoro", None, ("normal_multi_vertex",),
           span=True),
    Target("virasoro.residual", "screenops.virasoro", "VertexScreeningCochains", ("residual",),
           span=True),
    Target("virasoro.invariance_defect", "screenops.virasoro", "VertexScreeningCochains",
           ("invariance_defect",), span=True),
    Target("wakimoto.current_apply", "screenops.wakimoto", "CurrentAction", ("apply",)),
    Target("wakimoto.residual", "screenops.wakimoto", "ScreeningCochains", ("residual",),
           span=True),
)

# per-layer metric -> (target name, statistic); see layer_metrics
PER_LAYER = {
    "scalars.mul_calls": ("scalars.mul", "calls"),
    "scalars.mul_s": ("scalars.mul", "self_s"),
    "scalars.rational_mul_share": ("scalars.mul", "flag_share"),
    "scalars.add_calls": ("scalars.add", "calls"),
    "scalars.add_s": ("scalars.add", "self_s"),
    "scalars.poly_mul_calls": ("scalars.poly_mul", "calls"),
    "scalars.poly_mul_s": ("scalars.poly_mul", "self_s"),
    "scalars.gcd_calls": ("scalars.gcd", "calls"),
    "scalars.gcd_s": ("scalars.gcd", "self_s"),
    "scalars.exact_div_calls": ("scalars.exact_div", "calls"),
    "scalars.exact_div_s": ("scalars.exact_div", "self_s"),
    "scalars.exact_div_fail_share": ("scalars.exact_div", "fail_share"),
    "fock.osc_apply_calls": ("fock.osc_apply", "calls"),
    "fock.osc_apply_s": ("fock.osc_apply", "self_s"),
    "fock.vector_scale_s": ("fock.vector_scale", "self_s"),
    "fock.vector_add_s": ("fock.vector_add", "self_s"),
    "fock.commutator_blocks_s": ("fock.commutator_blocks", "self_s"),
    "fields.apply_field_coeff_calls": ("fields.apply_field_coeff", "calls"),
    "fields.apply_field_coeff_s": ("fields.apply_field_coeff", "self_s"),
    "fields.wick_ope_s": ("fields.wick_ope", "self_s"),
    "fields.ope_bracket_action_s": ("fields.ope_bracket_action", "self_s"),
    "forms.cleared_d_calls": ("forms.cleared_d", "calls"),
    "forms.cleared_d_s": ("forms.cleared_d", "self_s"),
    "forms.laurent_contract_s": ("forms.laurent_contract", "self_s"),
    "forms.mul_zdiff_s": ("forms.mul_zdiff", "self_s"),
    "forms.rational_add_s": ("forms.rational_add", "self_s"),
    "forms.rational_contract_s": ("forms.rational_contract", "self_s"),
    "forms.rational_lie_s": ("forms.rational_lie", "self_s"),
    "forms.rational_d_s": ("forms.rational_d", "self_s"),
    "kacmoody.verma_act_s": ("kacmoody.verma_act", "self_s"),
    "verma_screenings.residual_calls": ("verma_screenings.residual", "calls"),
    "verma_screenings.residual_s": ("verma_screenings.residual", "self_s"),
    "virasoro.virasoro_apply_s": ("virasoro.virasoro_apply", "self_s"),
    "virasoro.normal_multi_vertex_s": ("virasoro.normal_multi_vertex", "self_s"),
    "virasoro.residual_s": ("virasoro.residual", "self_s"),
    "virasoro.invariance_defect_s": ("virasoro.invariance_defect", "self_s"),
    "wakimoto.current_apply_s": ("wakimoto.current_apply", "self_s"),
    "wakimoto.residual_s": ("wakimoto.residual", "self_s"),
}

UNITS = (("_calls", "count"), ("_share", "ratio"), ("_ratio", "ratio"), ("_s", "s"))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its suffix."""
    return next(unit for suffix, unit in UNITS if metric.endswith(suffix))


class Tracer:
    """Call stack, aggregated statistics and span records of wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # (name, parent name) -> [calls, total_s, self_s, flagged, failed]
        self.stats: dict = {}
        # (span id, name, start, end, parent span id)
        self.spans: list = []
        # frames: [name, covered_s, span id, enclosing span id, parent frame]
        self._stack: list = []
        self._running: set = set()  # outermost-only targets now running
        self._patched: list = []  # (namespace object, attribute, original)

    # -- recording -------------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs, *, span=False,
             outermost=False, flag=None):
        """Run ``fn(*args, **kwargs)`` as one traced call named ``name``."""
        flagged = flag is not None and flag(args)
        if outermost:
            if name in self._running:
                return fn(*args, **kwargs)
            self._running.add(name)
        failed = False
        frame = self._enter(name, span)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except ValueError:
            failed = True
            raise
        finally:
            self._exit(frame, start, self.clock(), flagged, failed)
            if outermost:
                self._running.discard(name)

    @contextlib.contextmanager
    def span(self, name: str):
        """Trace a block of the benchmark's own code as one span."""
        frame = self._enter(name, True)
        start = self.clock()
        try:
            yield
        finally:
            self._exit(frame, start, self.clock(), False, False)

    def _enter(self, name: str, span: bool) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is None:
            enclosing = None
        else:
            enclosing = parent[2] if parent[2] is not None else parent[3]
        span_id = None
        if span:
            span_id = len(self.spans)
            self.spans.append(None)  # filled in on exit
        frame = [name, 0.0, span_id, enclosing, parent]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float, flagged: bool, failed: bool):
        name, covered, span_id, enclosing, parent = frame
        self._stack.pop()
        duration = end - start
        if parent is not None:
            parent[1] += duration
        key = (name, None if parent is None else parent[0])
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0, 0, 0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - covered
        st[3] += flagged
        st[4] += failed
        if span_id is not None:
            self.spans[span_id] = (span_id, name, start, end, enclosing)

    # -- installing wrappers -----------------------------------------------------

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer, name = self, target.name
        span, outermost, flag = target.span, target.outermost, target.flag

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, span=span,
                               outermost=outermost, flag=flag)

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target where it is defined and wherever it was imported."""
        for target in targets:
            module = importlib.import_module(target.module)
            if target.owner is not None:
                owner = getattr(module, target.owner)
                for attr in target.attrs:
                    self._patch(owner, attr, self.wrap(target, owner.__dict__[attr]))
                continue
            for attr in target.attrs:
                original = getattr(module, attr)
                wrapped = self.wrap(target, original)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__dict__", {}).get(attr) is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, namespace, attr: str, replacement) -> None:
        self._patched.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    # -- results -------------------------------------------------------------------

    def totals(self) -> dict:
        """name -> {calls, total_s, self_s, flagged, failed}, summed over parents."""
        out: dict = {}
        for (name, _parent), (calls, total, self_s, flagged, failed) in self.stats.items():
            t = out.setdefault(name, dict(calls=0, total_s=0.0, self_s=0.0,
                                          flagged=0, failed=0))
            t["calls"] += calls
            t["total_s"] += total
            t["self_s"] += self_s
            t["flagged"] += flagged
            t["failed"] += failed
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric of ``PER_LAYER``; absent layers read 0."""
        totals = self.totals()
        out = {}
        for metric, (name, stat) in PER_LAYER.items():
            t = totals.get(name)
            if t is None or not t["calls"]:
                out[metric] = 0
            elif stat == "flag_share":
                out[metric] = t["flagged"] / t["calls"]
            elif stat == "fail_share":
                out[metric] = t["failed"] / t["calls"]
            else:
                out[metric] = t[stat]
        return out

    def dump(self) -> dict:
        return {
            "stats": [
                dict(name=name, parent=parent, calls=c, total_s=tot, self_s=s,
                     flagged=f, failed=x)
                for (name, parent), (c, tot, s, f, x) in sorted(
                    self.stats.items(), key=lambda kv: -kv[1][2])
            ],
            "spans": self.spans,
        }
