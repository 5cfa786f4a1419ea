"""The compiled closure against the checked tree walk it stands in for.

``evaluate`` answers from the compiled closure unless it raises a
floating-point error or meets a non-finite input; then the checked walk
decides.  These tests hold the two paths to the same bits and the same
``DomainError`` messages.  ``tests/oracles.py`` stays the independent
check on the values themselves (``test_expr.py``).
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plresonance import expr as ex

_VARS = ("x", "u")


def _outcome(fn):
    """What an evaluation did: its value down to the bits, or its domain error."""
    try:
        value = fn()
    except ex.DomainError as err:
        return ("DomainError", str(err))
    return (type(value).__name__, np.shape(value), np.asarray(value).tobytes())


def _leaf():
    return st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1000.0]).map(ex.Num),
        st.sampled_from(_VARS).map(ex.Var),
        st.just(ex.Const("pi")),
    )


def _node(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda t: ex.Bin(*t)),
        children.map(ex.Neg),
        st.tuples(st.sampled_from(ex.UNARY_FUNCTIONS), children).map(lambda t: ex.Call(t[0], (t[1],))),
        st.tuples(children, children).map(lambda t: ex.Call("pow", t)),
    )


grammar = st.recursive(_leaf(), _node, max_leaves=10)
finite = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False),
)
vectors = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(hnp.arrays(float, n, elements=finite), hnp.arrays(float, n, elements=finite))
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(grammar, st.one_of(vectors, st.tuples(finite, finite)))
def test_compiled_matches_checked_walk(root, xu):
    e = ex.Expression(root, frozenset(_VARS), frozenset(ex._free_vars(root)), "<generated>")
    bindings = dict(zip(_VARS, xu))
    checked = _outcome(lambda: ex._evaluate_checked(e, bindings))
    assert _outcome(lambda: ex.evaluate(e, bindings)) == checked
    fast = ex._evaluate_compiled(e.compiled, bindings)
    if fast is not None:
        # the closure vouched for its value: the walk must agree to the bit
        assert _outcome(lambda: fast) == checked


@pytest.mark.parametrize(
    "source, message",
    [
        # an undefined intermediate hidden by a finite result
        ("atan(1/u)", "division by zero in '1.0/u'"),
        ("exp(-1/u^2)", "division by zero in '-1.0/u^2.0'"),
        ("tanh(ln(u))", "logarithm of a non-positive number in 'ln(u)'"),
        ("pow(ln(u), 0)", "logarithm of a non-positive number in 'ln(u)'"),
    ],
)
def test_hidden_domain_errors_still_named(source, message):
    e = ex.parse(source, {"u"})
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(e, {"u": 0.0})
    assert str(err.value) == f"{message} (argument value 0.0)"
    assert ex._evaluate_compiled(e.compiled, {"u": 0.0}) is None
    with pytest.raises(ex.DomainError) as arr_err:
        ex.evaluate(e, {"u": np.array([1.0, 0.0])})
    assert str(arr_err.value) == str(err.value)


def test_overflow_still_returns_inf():
    e = ex.parse("exp(u)", {"u"})
    assert ex.evaluate(e, {"u": 1000.0}) == math.inf
    out = ex.evaluate(e, {"u": np.array([0.0, 1000.0])})
    assert out[0] == 1.0 and out[1] == math.inf


def test_nan_input_still_reported():
    with pytest.raises(ex.DomainError, match="evaluation produced NaN"):
        ex.evaluate(ex.parse("u + 1", {"u"}), {"u": math.nan})


def test_infinite_input_takes_the_checked_walk():
    # (-inf)^0.5 is inf with no flag raised, and 1/inf hides it; the walk
    # still names the fractional power of a negative base
    e = ex.parse("atan(1/u^0.5)", {"u"})
    with pytest.raises(ex.DomainError, match="negative base raised to a non-integer power"):
        ex.evaluate(e, {"u": -math.inf})


def test_infinite_literal_is_never_compiled():
    e = ex.parse("atan(1e999/u)", {"u"})
    assert e.compiled is None
    with pytest.raises(ex.DomainError, match="division by zero"):
        ex.evaluate(e, {"u": 0.0})


def test_unbound_variable_still_reported():
    with pytest.raises(ex.UnboundVariableError, match="unbound variable 'u'"):
        ex.evaluate(ex.parse("x + u", {"x", "u"}), {"x": np.ones(3)})


def test_expression_built_directly_is_compiled():
    root = ex.Bin("*", ex.Var("x"), ex.Bin("^", ex.Var("u"), ex.Num(2.0)))
    e = ex.Expression(root, frozenset(_VARS), frozenset(), "<generated>")
    assert e.root == ex.parse("x*u^2", set(_VARS)).root
    assert e.compiled is not None
    bindings = {"x": np.array([1.0, 2.0]), "u": np.array([3.0, -4.0])}
    assert np.array_equal(ex.evaluate(e, bindings), [9.0, 32.0])
    assert ex.evaluate(e, {"x": 2, "u": 3}) == 18.0


def test_compiled_field_stays_out_of_equality_repr_and_pickle():
    a, b = ex.parse("u^2", {"u"}), ex.parse("u^2", {"u"})
    assert a == b and hash(a) == hash(b)
    assert "compiled" not in repr(a)
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and ex.evaluate(copy, {"u": 3.0}) == 9.0


def test_zero_literals_of_opposite_sign_are_not_shared():
    # u + 0.0 and u + -0.0 are equal as trees but differ at u = -0.0
    u = ex.Var("u")
    root = ex.Bin("*", ex.Bin("+", u, ex.Num(-0.0)), ex.Bin("+", u, ex.Num(0.0)))
    e = ex.Expression(root, frozenset({"u"}), frozenset({"u"}), "<generated>")
    out = ex.evaluate(e, {"u": -0.0})
    assert out == 0.0 and math.copysign(1.0, out) == -1.0
