"""Shared fixtures: the standard test sequences.

The elliptic divisibility sequence files under data/ hold the fourteen
published terms of A006769 and a 150-term extension produced by the
sequence's own quartic recurrence a(n) = (a(n-1)a(n-3) + a(n-2)^2)/a(n-4);
test_seqcore regenerates the extension and checks the files verbatim.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

if importlib.util.find_spec("cnomial") is None:
    # This checkout's package, unless PYTHONPATH or an install already names one.
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from cnomial import seqcore  # noqa: E402
from cnomial.polyarith import ValPoly  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"
EDS14_PATH = DATA_DIR / "eds_a006769_14.txt"
EDS150_PATH = DATA_DIR / "eds_a006769_150.txt"


def poly_from_json(data):
    """Inverse of ValPoly.to_json_dict."""
    return ValPoly({int(e): int(c) for e, c in data.items()})


def valid_lucas(params):
    """Whether LucasSpec accepts the pair (P, Q); a Hypothesis filter."""
    try:
        seqcore.LucasSpec(*params)
    except ValueError:
        return False
    return True


@pytest.fixture(scope="session")
def fib():
    return seqcore.LucasSpec(1, -1)


@pytest.fixture(scope="session")
def lucas52():
    return seqcore.LucasSpec(5, -2)


@pytest.fixture(scope="session")
def lucas31():
    return seqcore.LucasSpec(3, -1)


@pytest.fixture(scope="session")
def naturals():
    return seqcore.LucasSpec(2, 1)


@pytest.fixture(scope="session")
def eds14():
    return seqcore.load_terms_file(str(EDS14_PATH))


@pytest.fixture(scope="session")
def eds150():
    return seqcore.load_terms_file(str(EDS150_PATH))


@pytest.fixture(scope="session")
def make_chain_spec():
    """Synthetic strong divisibility sequences C_n = p^(number of chain
    entries dividing n), for a divisibility chain of apparition indices."""

    def build(chain, length, p=2, name="chain"):
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0, "chain entries must divide successors"
        terms = tuple(
            p ** sum(1 for a in chain if n % a == 0) for n in range(1, length + 1)
        )
        return seqcore.FileBackedSpec(terms, name=name)

    return build
