"""The benchmark's tracer patches package attributes by name; a refactor
that renames or removes one must fail here, not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("perfbench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve(tracer):
    for module_name, attr, _span in tracer.SPAN_TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), (module_name, attr)
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_counter_hooks_exist(tracer):
    from cnomial import initvec, seqcore, transfer

    assert callable(seqcore.residues)
    assert callable(initvec.f_value)
    assert callable(transfer.digit_matrices.cache_info)
