"""The linear structure every formal-sum type takes from `scalars.Combination`."""

import pytest

from screenops.fields import FieldExpr
from screenops.fock import FockSpace, FockVector, OscSpec
from screenops.forms import FormSpace, RationalForm
from screenops.kacmoody import CartanData, VermaModule, VermaVector
from screenops.scalars import Combination, ParameterContext
from screenops.wakimoto import LoopElement

CTX = ParameterContext(("x",))
X = CTX.param("x")
SL2 = CartanData.sl2()

# per type: three keys, a builder of a space, the scalar coercion over that
# space, and the constructor of a sum from {key: scalar}
TYPES = {
    "fock": (
        [(), (("b", -1),), (("b", -2),)],
        lambda: FockSpace(OscSpec(CTX), X),
        lambda space: space.ctx.scalar,
        FockVector,
    ),
    "field": (
        [(None, ()), (None, (("p", 0),)), (None, (("p", 1),))],
        lambda: ParameterContext(("x",)),
        lambda ctx: ctx.scalar,
        FieldExpr,
    ),
    "loop": (
        [("E", 0), ("F", 1), "c"],
        lambda: ParameterContext(("x",)),
        lambda ctx: ctx.scalar,
        LoopElement,
    ),
    "rational-form": (
        [(), (0,), (0, 1)],
        lambda: FormSpace(CTX, 2),
        lambda space: CTX.scalar,
        RationalForm,
    ),
    "verma": (
        [(), (0,), (0, 0)],
        lambda: VermaModule(SL2, (X,), CTX),
        lambda module: module.ctx.scalar,
        VermaVector,
    ),
}

# a + b cancels at the first key; a and b share no other key
A_COEFFS, B_COEFFS = (1, 2, 0), (-1, 0, "x")


def build(kind, space, coeffs):
    keys, _, scalar, cls = TYPES[kind]
    coerce = scalar(space)
    return cls(space, {k: coerce(c) for k, c in zip(keys, coeffs) if c != 0})


def pair(kind, space=None):
    space = TYPES[kind][1]() if space is None else space
    return build(kind, space, A_COEFFS), build(kind, space, B_COEFFS)


@pytest.fixture(params=sorted(TYPES))
def kind(request):
    return request.param


def test_every_type_takes_its_sums_from_the_base(kind):
    cls = TYPES[kind][3]
    assert issubclass(cls, Combination)
    for attr in ("__sub__", "__neg__", "is_zero", "__eq__", "_combine"):
        assert attr not in cls.__dict__, attr
    assert cls.__add__ is Combination.__add__


def test_add_then_subtract_returns_the_sum(kind):
    a, b = pair(kind)
    assert a + b - b == a
    assert (a + b - b).terms.keys() == a.terms.keys()


def test_self_difference_has_no_terms(kind):
    a, _ = pair(kind)
    assert (a - a).terms == {}
    assert (a - a).is_zero() and not a.is_zero()


def test_double_negation(kind):
    a, b = pair(kind)
    assert -(-a) == a
    assert -a != a
    assert a - b == a + (-b)


def test_cancelling_sum_drops_the_coefficient(kind):
    keys = TYPES[kind][0]
    a, b = pair(kind)
    total = a + b
    assert keys[0] not in total.terms
    assert set(total.terms) == {keys[1], keys[2]}
    assert not any(c.is_zero() for c in total.terms.values())
    assert not any(c.is_zero() for c in (total - b).terms.values())


def test_sums_are_unhashable(kind):
    a, _ = pair(kind)
    with pytest.raises(TypeError):
        hash(a)


def test_sums_over_another_space_raise(kind):
    # a second space built the same way is distinct for FormSpace and
    # VermaModule; Fock spaces and contexts compare by value, so change them
    other = {
        "fock": lambda: FockSpace(OscSpec(CTX), X + 1),
        "field": lambda: ParameterContext(("x", "y")),
        "loop": lambda: ParameterContext(("x", "y")),
    }.get(kind, TYPES[kind][1])()
    a, _ = pair(kind)
    foreign, _ = pair(kind, other)
    for op in (lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(ValueError, match="cannot combine sums over"):
            op(a, foreign)
    assert a != foreign


def test_separately_built_equal_sums_compare_equal(kind):
    space = TYPES[kind][1]()
    assert build(kind, space, A_COEFFS) == build(kind, space, A_COEFFS)
    assert build(kind, space, A_COEFFS) != build(kind, space, B_COEFFS)


def test_loop_elements_compare_by_value():
    ctx = ParameterContext(("x",))
    e, f = LoopElement.basis(ctx, "E", 1), LoopElement.basis(ctx, "F", -1)
    assert e.bracket(f) == LoopElement(ctx, {("H", 0): 1, "c": 1})
    assert LoopElement.basis(ctx, "H", 0) == LoopElement(ctx, {("H", 0): ctx.one()})
    assert e != f
