import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnomial.polyarith import (
    PolyMatrix,
    PolyVector,
    ValPoly,
    mat_vec_mul,
    row_vec_mul,
)

P = ValPoly  # shorthand for literals


def test_construction_canonicalizes():
    assert P({0: 1, 2: 0, 5: 0}) == P({0: 1})
    assert P({}) == P() == ValPoly.zero()
    assert not ValPoly.zero()
    assert ValPoly.monomial(0, 3) == ValPoly.zero()


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        P({2: -1})
    with pytest.raises(ValueError):
        P({-1: 2})
    with pytest.raises(ValueError):
        P({1.5: 2})
    with pytest.raises(ValueError):
        ValPoly({0: True})


def test_add_examples():
    assert P({0: 1, 1: 1}) + P({1: 2, 2: 1}) == P({0: 1, 1: 3, 2: 1})
    p = P({0: 7, 3: 2})
    assert p + ValPoly.zero() == p
    assert P({0: 2, 1: 1}) + P({0: 2, 1: 1}) == P({0: 4, 1: 2})


def test_mul_examples():
    assert P({0: 1, 1: 1}) * P({0: 1, 1: 1}) == P({0: 1, 1: 2, 2: 1})
    p = P({0: 5, 2: 3})
    assert p * ValPoly.one() == p
    assert P({0: 2, 1: 1}) * P({2: 1}) == P({2: 2, 3: 1})


def test_scalar_mul():
    assert 3 * P({0: 1, 2: 2}) == P({0: 3, 2: 6})
    assert P({1: 4}) * 0 == ValPoly.zero()
    with pytest.raises(ValueError):
        P({0: 1}) * (-2)


def test_eval_at_one():
    assert P({0: 10, 2: 3}).eval_at_one() == 13
    assert ValPoly.one().eval_at_one() == 1
    assert P({0: 6, 1: 3, 2: 4}).eval_at_one() == 13
    assert ValPoly.zero().eval_at_one() == 0


def test_degree_and_coefficient():
    p = P({0: 6, 5: 2})
    assert p.degree == 5
    assert ValPoly.zero().degree == -1
    assert p.coefficient(5) == 2
    assert p.coefficient(3) == 0


def test_text_form():
    assert str(P({0: 10, 2: 3})) == "10 + 3*x^2"
    assert str(P({0: 4, 1: 2, 3: 4, 4: 4})) == "4 + 2*x + 4*x^3 + 4*x^4"
    assert str(P({1: 1})) == "1*x"
    assert str(ValPoly.zero()) == "0"


def test_json_round_trip():
    p = P({0: 10, 2: 3})
    d = p.to_json_dict()
    assert d == {"0": "10", "2": "3"}
    assert json.dumps(d, separators=(",", ":")) == '{"0":"10","2":"3"}'
    assert ValPoly.from_json_dict(d) == p
    assert ValPoly.from_json_dict({}) == ValPoly.zero()


# -- matrix and vector operations -------------------------------------------

M7_1 = PolyMatrix.from_rows([
    [P({0: 2}), P({0: 5})],
    [P({1: 1}), P({1: 6})],
])
M2_0 = PolyMatrix.from_rows([
    [P({0: 1}), P({0: 1})],
    [ValPoly.zero(), P({1: 2})],
])
M2_1 = PolyMatrix.from_rows([
    [P({0: 2}), ValPoly.zero()],
    [P({1: 1}), P({1: 1})],
])
E2 = PolyVector.column(ValPoly.one(), ValPoly.zero())


def test_mat_vec_examples():
    assert mat_vec_mul(M7_1, E2).entries == (P({0: 2}), P({1: 1}))
    inner = mat_vec_mul(M2_1, E2)
    outer = mat_vec_mul(M2_0, inner)
    assert outer.entries == (P({0: 2, 1: 1}), P({2: 2}))
    ident = PolyMatrix.from_rows([
        [ValPoly.one(), ValPoly.zero()],
        [ValPoly.zero(), ValPoly.one()],
    ])
    v = PolyVector.column(P({0: 3, 1: 1}), P({2: 7}))
    assert mat_vec_mul(ident, v) == v


def test_row_vec_examples():
    assert row_vec_mul(
        PolyVector.row(P({0: 5}), P({1: 3})),
        PolyVector.column(P({0: 2}), P({1: 1})),
    ) == P({0: 10, 2: 3})
    assert row_vec_mul(
        PolyVector.row(P({0: 3}), P({0: 2})),
        PolyVector.column(P({0: 2, 1: 1}), P({2: 2})),
    ) == P({0: 6, 1: 3, 2: 4})
    assert row_vec_mul(
        PolyVector.row(P({0: 2}), P({1: 2, 2: 2})),
        PolyVector.column(P({0: 2, 1: 1}), P({2: 2})),
    ) == P({0: 4, 1: 2, 3: 4, 4: 4})


def test_dimension_and_orientation_errors():
    v3 = PolyVector.column(*(ValPoly.one(),) * 3)
    with pytest.raises(ValueError):
        mat_vec_mul(M7_1, v3)
    with pytest.raises(ValueError):
        mat_vec_mul(M7_1, PolyVector.row(ValPoly.one(), ValPoly.one()))
    with pytest.raises(ValueError):
        row_vec_mul(PolyVector.column(ValPoly.one()), PolyVector.column(ValPoly.one()))
    with pytest.raises(ValueError):
        PolyMatrix.from_rows([[ValPoly.one()], [ValPoly.zero()]])


# -- algebraic laws -----------------------------------------------------------

polys = st.dictionaries(st.integers(0, 6), st.integers(0, 9), max_size=4).map(ValPoly)


@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_add_mul_associate(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_eval_at_one_is_homomorphism(a, b):
    assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()
    assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()
