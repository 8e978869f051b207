"""Strong divisibility sequences: Lucas-type recurrences and file-backed
term lists.  The naturals C_n = n are the Lucas sequence U(2, 1).

A strong divisibility sequence of nonzero integers satisfies
gcd(|C_n|, |C_m|) = |C_gcd(n, m)| for all positive indices.  Terms may be
negative (elliptic divisibility sequences are); everything downstream that
cares about divisibility works with absolute values.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from itertools import islice

from .record import Record, _set


class InsufficientTermsError(Exception):
    """A file-backed sequence does not store enough terms for the request."""


class WorkLimitError(ValueError):
    """A request exceeds its up-front work bound and was refused."""


MAX_ENTRIES = 2 * 10 ** 5
"""Most entries a linear representation, a listing or a ratio list may hold."""


def check_entries(entries: int, what: str) -> None:
    """Refuse, before any is built, more than MAX_ENTRIES entries."""
    if entries > MAX_ENTRIES:
        raise WorkLimitError(f"{what} refused: {entries} entries exceed the limit of {MAX_ENTRIES}")


class LucasSpec(Record):
    """Second-order recurrence U_1 = 1, U_2 = P, U_n = P*U_{n-1} - Q*U_{n-2}.

    Construction requires gcd(U_2, U_3) = 1, the standing hypothesis for
    strong divisibility, and rejects parameter pairs whose recurrence hits a
    zero term (P = 0, or P^2 in {Q, 2Q, 3Q}, which zero out U_2, U_3, U_4 or
    U_6).
    """

    __slots__ = ("P", "Q")
    P: int
    Q: int

    def __init__(self, P: int, Q: int):
        u2, u3 = P, P * P - Q
        if P == 0 or (Q != 0 and P * P in (Q, 2 * Q, 3 * Q)):
            raise ValueError(f"Lucas({P},{Q}) produces a zero term")
        if math.gcd(abs(u2), abs(u3)) != 1:
            raise ValueError(
                f"Lucas({P},{Q}): gcd(U_2, U_3) = "
                f"{math.gcd(abs(u2), abs(u3))} != 1, not a strong divisibility sequence"
            )
        _set(self, "P", P)
        _set(self, "Q", Q)

    @property
    def selector(self) -> str:
        return f"lucas:{self.P},{self.Q}"


class FileBackedSpec(Record):
    """Finite list of stored terms; terms[i] holds C_{i+1}."""

    __slots__ = ("terms", "name")
    terms: tuple[int, ...]
    name: str

    def __init__(self, terms: tuple[int, ...], name: str = "file"):
        if not terms:
            raise ValueError("file-backed sequence has no terms")
        for i, t in enumerate(terms, start=1):
            if t == 0:
                raise ValueError(f"term C_{i} is zero; terms must be nonzero integers")
        _set(self, "terms", terms)
        _set(self, "name", name)

    @property
    def selector(self) -> str:
        return f"file:{self.name}"


SequenceSpec = LucasSpec | FileBackedSpec


def _lucas_jump(spec: LucasSpec, n: int, m: int | None) -> tuple[int, int]:
    """(U_n, U_{n+1}) by binary powering of the companion matrix
    [[P, -Q], [1, 0]], whose k-th power is
    [[U_{k+1}, -Q*U_k], [U_k, -Q*U_{k-1}]]; only the pair (U_k, U_{k+1}) is
    kept.  Doubling uses
    U_{2k} = U_k*(2*U_{k+1} - P*U_k) and U_{2k+1} = U_{k+1}^2 - Q*U_k^2,
    which need no division, so any modulus m works (None keeps exact terms).
    """
    P, Q = spec.P, spec.Q
    u, v = 0, 1  # (U_0, U_1)
    for bit in bin(n)[2:]:
        u, v = u * (2 * v - P * u), v * v - Q * u * u
        if bit == "1":
            u, v = v, P * v - Q * u
        if m is not None:
            u, v = u % m, v % m
    return u, v


def _lucas_stream(spec: LucasSpec, m: int | None) -> Iterator[int]:
    """U_1, U_2, ... one recurrence step at a time, reduced mod m unless m
    is None."""
    P, Q = spec.P, spec.Q
    u, v = 1, P
    while True:
        yield u
        u, v = v, P * v - Q * u
        if m is not None:
            u, v = u % m, v % m


def term(spec: SequenceSpec, n: int) -> int:
    """The exact n-th term (1-indexed, may be negative)."""
    if n < 1:
        raise ValueError(f"term index must be positive, got {n}")
    if isinstance(spec, FileBackedSpec):
        if n > len(spec.terms):
            raise InsufficientTermsError(
                f"insufficient terms: need C_{n}, {spec.name} stores {len(spec.terms)}"
            )
        return spec.terms[n - 1]
    return _lucas_jump(spec, n, None)[0]


def term_mod(spec: SequenceSpec, n: int, m: int) -> int:
    """term(spec, n) reduced mod m, as the nonnegative representative.

    Lucas sequences take O(log n) multiplications of residues mod m (a
    2x2 matrix power that divides by nothing, so even m is fine); stored
    terms are indexed directly.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"term index must be positive, got {n}")
    if isinstance(spec, FileBackedSpec):
        return term(spec, n) % m
    return _lucas_jump(spec, n, m)[0]


def residues(spec: SequenceSpec, m: int) -> Iterator[int]:
    """Yield C_1 mod m, C_2 mod m, ... (stops at the last stored term for
    file-backed sequences, runs forever otherwise)."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if isinstance(spec, FileBackedSpec):
        for t in spec.terms:
            yield t % m
        return
    yield from _lucas_stream(spec, m)


def terms_prefix(spec: SequenceSpec, count: int) -> list[int]:
    """Terms C_1..C_count as a list (index 0 holds C_1)."""
    if isinstance(spec, FileBackedSpec):
        if count > len(spec.terms):
            raise InsufficientTermsError(
                f"insufficient terms: need C_{count}, {spec.name} stores {len(spec.terms)}"
            )
        return list(spec.terms[:count])
    return list(islice(_lucas_stream(spec, None), count))


def load_terms_file(path: str) -> FileBackedSpec:
    """Read one decimal integer per line; line i holds C_i.

    Blank lines and lines starting with ``#`` are ignored.
    """
    terms = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = int(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not an integer: {line!r}") from None
            if value == 0:
                raise ValueError(f"{path}:{lineno}: zero term is not allowed")
            terms.append(value)
    if not terms:
        raise ValueError(f"{path}: no terms found")
    return FileBackedSpec(tuple(terms), name=os.path.basename(path))


def parse_selector(text: str) -> SequenceSpec:
    """Parse a CLI sequence selector.

    Accepted forms: ``fibonacci``, ``naturals``, ``lucas:P,Q``, ``file:PATH``.
    """
    if text == "fibonacci":
        return LucasSpec(1, -1)
    if text == "naturals":
        return LucasSpec(2, 1)
    if text.startswith("lucas:"):
        body = text[len("lucas:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"lucas selector needs two integers, got {text!r}")
        try:
            return LucasSpec(int(parts[0]), int(parts[1]))
        except ValueError as e:
            raise ValueError(f"bad lucas selector {text!r}: {e}") from None
    if text.startswith("file:"):
        return load_terms_file(text[len("file:"):])
    raise ValueError(f"unknown sequence selector {text!r}")
