"""Exact arithmetic for valuation-counting polynomials and matrices of them.

The central value is a polynomial in one variable x whose coefficients are
nonnegative integers of unbounded size: the coefficient on x^i records how
many objects of interest have p-adic valuation i.  Coefficients grow like
binomial(n + k - 1, k - 1) while degrees stay near log(n), so the natural
representation is a sparse exponent-to-coefficient mapping with exact
big-integer arithmetic throughout.

All values are immutable and kept in canonical form (no zero coefficient
is ever stored), so ``==`` is structural equality and values may be shared
freely across concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass

ROW = "row"
COLUMN = "column"


class ValPoly:
    """Polynomial in x with nonnegative arbitrary-precision integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if not isinstance(exp, int) or isinstance(exp, bool) or exp < 0:
                    raise ValueError(f"exponent must be a nonnegative integer, got {exp!r}")
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ValueError(f"coefficient must be an integer, got {c!r}")
                if c < 0:
                    raise ValueError(f"negative coefficient {c} on x^{exp}")
                if c:
                    clean[exp] = c
        self._coeffs = clean

    @classmethod
    def zero(cls) -> "ValPoly":
        return cls()

    @classmethod
    def one(cls) -> "ValPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coefficient: int, exponent: int) -> "ValPoly":
        """The polynomial coefficient * x^exponent (zero if coefficient is 0)."""
        return cls({exponent: coefficient})

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def items(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return tuple(sorted(self._coeffs.items()))

    @property
    def degree(self) -> int:
        """Largest exponent with a nonzero coefficient; -1 for the zero polynomial."""
        return max(self._coeffs, default=-1)

    def is_zero(self) -> bool:
        return not self._coeffs

    def eval_at_one(self) -> int:
        """Sum of all coefficients, i.e. the total count of objects tallied."""
        return sum(self._coeffs.values())

    def __add__(self, other: "ValPoly") -> "ValPoly":
        if not isinstance(other, ValPoly):
            return NotImplemented
        if not self._coeffs:
            return other
        if not other._coeffs:
            return self
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return ValPoly(out)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            if other < 0:
                raise ValueError(f"negative scalar {other}")
            if other == 0 or not self._coeffs:
                return ValPoly()
            return ValPoly({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, ValPoly):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return ValPoly()
        out: dict[int, int] = {}
        for ea, ca in self._coeffs.items():
            for eb, cb in other._coeffs.items():
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        return ValPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __str__(self) -> str:
        """Text form ``c0 + c1*x + c2*x^2`` in increasing exponent, zero terms omitted."""
        if not self._coeffs:
            return "0"
        parts = []
        for exp, c in self.items():
            if exp == 0:
                parts.append(str(c))
            elif exp == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{exp}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ValPoly({dict(self.items())!r})"

    def to_json_dict(self) -> dict[str, str]:
        """JSON form: exponent strings to decimal coefficient strings, ascending."""
        return {str(e): str(c) for e, c in self.items()}

    @classmethod
    def from_json_dict(cls, data: dict[str, str]) -> "ValPoly":
        return cls({int(e): int(c) for e, c in data.items()})


@dataclass(frozen=True)
class PolyVector:
    """Fixed-length vector of polynomials, tagged as a row or a column."""

    entries: tuple[ValPoly, ...]
    orientation: str

    def __post_init__(self):
        if self.orientation not in (ROW, COLUMN):
            raise ValueError(f"orientation must be {ROW!r} or {COLUMN!r}")
        if not self.entries:
            raise ValueError("vector must have at least one entry")

    @classmethod
    def row(cls, *entries: ValPoly) -> "PolyVector":
        return cls(tuple(entries), ROW)

    @classmethod
    def column(cls, *entries: ValPoly) -> "PolyVector":
        return cls(tuple(entries), COLUMN)

    @property
    def dim(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix of polynomials, stored as a tuple of row tuples."""

    entries: tuple[tuple[ValPoly, ...], ...]

    def __post_init__(self):
        k = len(self.entries)
        if k == 0 or any(len(row) != k for row in self.entries):
            raise ValueError("matrix entries must form a nonempty square grid")

    @classmethod
    def from_rows(cls, rows) -> "PolyMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def dim(self) -> int:
        return len(self.entries)


def slot_width(bound: int) -> int:
    """Bits per slot of a packed polynomial whose coefficients are all at
    most ``bound``: its bit length, rounded up to whole bytes."""
    return -(-bound.bit_length() // 8) * 8


def unpack(packed: int, width: int) -> ValPoly:
    """The polynomial packed into one integer with the coefficient of x^i in
    bits [i*width, (i+1)*width) (Kronecker substitution); width is a
    multiple of 8."""
    size = width // 8
    raw = packed.to_bytes(-(-packed.bit_length() // width) * size, "little")
    return ValPoly({i: int.from_bytes(raw[j:j + size], "little")
                    for i, j in enumerate(range(0, len(raw), size))})


def mat_vec_mul(m: PolyMatrix, v: PolyVector) -> PolyVector:
    """Matrix times column vector."""
    if v.orientation != COLUMN:
        raise ValueError("mat_vec_mul needs a column vector")
    if m.dim != v.dim:
        raise ValueError(f"dimension mismatch: matrix {m.dim}, vector {v.dim}")
    out = []
    for row in m.entries:
        acc = ValPoly.zero()
        for a, b in zip(row, v.entries):
            acc = acc + a * b
        out.append(acc)
    return PolyVector.column(*out)


def row_vec_mul(u: PolyVector, v: PolyVector) -> ValPoly:
    """Row vector times column vector (dot product)."""
    if u.orientation != ROW or v.orientation != COLUMN:
        raise ValueError("row_vec_mul needs a row and a column vector")
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: row {u.dim}, column {v.dim}")
    acc = ValPoly.zero()
    for a, b in zip(u.entries, v.entries):
        acc = acc + a * b
    return acc
