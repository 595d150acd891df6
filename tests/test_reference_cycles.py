"""Recursive helpers leave no reference cycles behind.

A nested function that calls itself refers to itself through its closure
cell, so unless the cell is cleared every call leaves a cycle (the function,
its cell and everything its frame reached) for the cyclic collector.  Each
test runs one function under ``gc.DEBUG_SAVEALL``, which keeps everything
the collector finds unreachable in ``gc.garbage``, and looks for its
recursive helpers there.
"""

import gc
import types
from fractions import Fraction

import pytest

from screenops.fields import apply_field_coeff, p_field
from screenops.fock import FockSpace, OscSpec, osc_apply
from screenops.forms import WittElement
from screenops.kacmoody import CartanData, gen
from screenops.scalars import ParameterContext
from screenops.verma_screenings import ReflectionCochains
from screenops.virasoro import VertexScreeningCochains, normal_multi_vertex
from screenops.wakimoto import AffineParams, LoopElement, ScreeningCochains, screening_ops


def garbage_closures(call) -> set:
    """Qualified names of the functions the collector finds unreachable after call()."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return {f.__qualname__ for f in gc.garbage if isinstance(f, types.FunctionType)}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def fock_space():
    ctx = ParameterContext(("alpha", "alpha0", "b"))
    return ctx, FockSpace(OscSpec(ctx), ctx.param("alpha"))


def test_factor_assignments_leaves_no_cycle():
    ctx, space = fock_space()
    u = osc_apply(("b", -1), space.vacuum())
    left = garbage_closures(lambda: apply_field_coeff(p_field(ctx), 0, u))
    assert "_mode_sums.<locals>.rec" not in left


def test_thread_leaves_no_cycle():
    ctx = ParameterContext(("lam",))
    rc = ReflectionCochains(CartanData.sl2(), (ctx.param("lam"),), [0], ctx, mode_max=2)
    u = rc.source.vacuum()
    left = garbage_closures(lambda: rc.component([gen("f", 0)], u))
    assert "ReflectionCochains._thread.<locals>.rec" not in left


def test_normal_multi_vertex_leaves_no_cycle():
    ctx, space = fock_space()
    mus = [ctx.param("b"), ctx.param("alpha0")]
    left = garbage_closures(lambda: normal_multi_vertex(mus, space.vacuum(), 2))
    assert not {"normal_multi_vertex.<locals>.create",
                "normal_multi_vertex.<locals>.annihilate"} & left


def _virasoro_row():
    fam = VertexScreeningCochains(ParameterContext(()), Fraction(-2, 5), Fraction(3, 2), 1,
                                  window_halfwidth=3)
    fam.residual([WittElement.basis(1)], fam.space.vacuum())


def _wakimoto_row():
    fam = ScreeningCochains(screening_ops(AffineParams.generic()), 1, window_halfwidth=3)
    fam.residual([LoopElement.basis(fam.ctx, "F", 1)], fam.source.vacuum())


@pytest.mark.parametrize("row", [_virasoro_row, _wakimoto_row], ids=["virasoro", "wakimoto"])
def test_vertex_cochain_family_leaves_no_cycle(row):
    # the memoised mode operators must not refer back to the action that holds them
    assert garbage_closures(row) == set()
