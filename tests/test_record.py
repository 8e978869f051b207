"""Value semantics of the seven immutable records: construction, equality,
hashing, text form, immutability and validation."""

import copy
import pickle

import pytest

from cnomial.apparition import PrimeClass, PrimeProfile
from cnomial.engine import EvalPath, LinearRepresentation, QueryResult
from cnomial.polyarith import PolyMatrix, PolyVector, ValPoly
from cnomial.seqcore import FileBackedSpec, LucasSpec

A = ValPoly({0: 1, 2: 3})


def make_all():
    """One instance of each record, built afresh on every call."""
    column = PolyVector.column(ValPoly({0: 1, 2: 3}), ValPoly())
    return [
        LucasSpec(1, -1),
        FileBackedSpec((1, -1, 2)),
        PrimeProfile(p=2, prime_class=PrimeClass.ACCEPTABLE, alpha_powers=(3, 6, 6), s=3,
                     ratios=(3, 2, 1, 2), evidence_kmax=4),
        QueryResult(ValPoly({0: 1, 2: 3}), EvalPath.IDEAL, (8, 1, 4, (1,))),
        PolyVector.row(ValPoly({0: 1, 2: 3})),
        PolyMatrix(((A, A), (A, A))),
        LinearRepresentation(p=7, k=2, modulus=8, residue_vectors={0: PolyVector.row(A, A)},
                             digit_matrices={1: PolyMatrix(((A,),))}, final_vector=column),
    ]


FIELDS = [
    ("P", "Q"),
    ("terms", "name"),
    ("p", "prime_class", "alpha_powers", "s", "ratios", "evidence_kmax"),
    ("polynomial", "path", "decomposition"),
    ("entries", "orientation"),
    ("entries",),
    ("p", "k", "modulus", "residue_vectors", "digit_matrices", "final_vector"),
]

REPRS = [
    "LucasSpec(P=1, Q=-1)",
    "FileBackedSpec(terms=(1, -1, 2), name='file')",
    "PrimeProfile(p=2, prime_class=<PrimeClass.ACCEPTABLE: 'Acceptable'>, "
    "alpha_powers=(3, 6, 6), s=3, ratios=(3, 2, 1, 2), evidence_kmax=4)",
    "QueryResult(polynomial=ValPoly({0: 1, 2: 3}), path=<EvalPath.IDEAL: "
    "'IdealMatrixProduct'>, decomposition=(8, 1, 4, (1,)))",
    "PolyVector(entries=(ValPoly({0: 1, 2: 3}),), orientation='row')",
    "PolyMatrix(entries=((ValPoly({0: 1, 2: 3}), ValPoly({0: 1, 2: 3})), "
    "(ValPoly({0: 1, 2: 3}), ValPoly({0: 1, 2: 3}))))",
    "LinearRepresentation(p=7, k=2, modulus=8, residue_vectors={0: PolyVector(entries="
    "(ValPoly({0: 1, 2: 3}), ValPoly({0: 1, 2: 3})), orientation='row')}, "
    "digit_matrices={1: PolyMatrix(entries=((ValPoly({0: 1, 2: 3}),),))}, "
    "final_vector=PolyVector(entries=(ValPoly({0: 1, 2: 3}), ValPoly({})), "
    "orientation='column'))",
]


def test_equal_fields_give_equal_values_and_hashes():
    for x, y in zip(make_all(), make_all()):
        assert x is not y
        assert x == y and not x != y
        if isinstance(x, LinearRepresentation):
            # Its fields include dicts, so it is unhashable, as before.
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(y)


def test_equality_needs_the_same_class_and_fields():
    assert PolyVector.row(A) != PolyVector.column(A)
    assert LucasSpec(1, -1) != (1, -1)
    assert LucasSpec(1, -1) != LucasSpec(5, -2)
    assert FileBackedSpec((1, 2)) != FileBackedSpec((1, 2), name="other")
    assert len({LucasSpec(1, -1), LucasSpec(1, -1), LucasSpec(2, 1)}) == 2


def test_repr_text():
    assert [repr(x) for x in make_all()] == REPRS


def test_fields_cannot_be_assigned_or_deleted():
    for x, fields in zip(make_all(), FIELDS):
        for field in fields:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(x, field, 0)
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 1
    assert make_all() == make_all()


def test_keyword_and_default_construction():
    prof = PrimeProfile(p=5, prime_class=PrimeClass.IDEAL, alpha_powers=(5,), s=1,
                        ratios=(5, 5), evidence_kmax=2)
    assert prof == PrimeProfile(5, PrimeClass.IDEAL, (5,), 1, (5, 5), 2)
    assert (prof.p, prof.alpha_powers[0], prof.stable_modulus) == (5, 5, 5)
    assert FileBackedSpec((1, 1, 2)).name == "file"
    assert FileBackedSpec(terms=(1, 1), name="f.txt").selector == "file:f.txt"
    assert LucasSpec(Q=-1, P=1) == LucasSpec(1, -1)
    assert QueryResult(polynomial=A, path=EvalPath.TRIVIAL, decomposition=(1, 0, 0, ())).path \
        is EvalPath.TRIVIAL


@pytest.mark.parametrize("index", range(len(FIELDS)))
def test_constructor_takes_each_field_once(index):
    # Every record binds its fields as def __init__(self, field_1, ..., field_n) would.
    record, fields = make_all()[index], FIELDS[index]
    cls, values = type(record), [getattr(record, f) for f in fields]
    named = dict(zip(fields, values))
    assert cls(*values) == cls(**named) == cls(values[0], **dict(zip(fields[1:], values[1:])))
    assert cls(*values) == record
    wrong = [
        lambda: cls(*values, values[0]),                  # too many
        lambda: cls(*values[:-1], extra=values[-1]),      # unknown
        lambda: cls(values[0], **named),                  # repeated
        lambda: cls(**dict(zip(fields[1:], values[1:]))),  # missing
    ]
    if len(fields) > 1:     # repeated with the right count, the last field missing
        wrong.append(lambda: cls(values[0], **dict(zip(fields[:-1], values[:-1]))))
    for build in wrong:
        with pytest.raises(TypeError):
            build()


def test_copy_and_pickle_keep_the_value():
    for x in make_all():
        assert copy.copy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("build, message", [
    (lambda: LucasSpec(0, 1), "Lucas(0,1) produces a zero term"),
    (lambda: LucasSpec(2, 4), "Lucas(2,4) produces a zero term"),
    (lambda: LucasSpec(2, -4),
     "Lucas(2,-4): gcd(U_2, U_3) = 2 != 1, not a strong divisibility sequence"),
    (lambda: FileBackedSpec(()), "file-backed sequence has no terms"),
    (lambda: FileBackedSpec((1, 0, 2)), "term C_2 is zero; terms must be nonzero integers"),
    (lambda: PolyVector((), "row"), "vector must have at least one entry"),
    (lambda: PolyVector((A,), "diag"), "orientation must be 'row' or 'column'"),
    (lambda: PolyMatrix(()), "matrix entries must form a nonempty square grid"),
    (lambda: PolyMatrix(((A, A),)), "matrix entries must form a nonempty square grid"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
