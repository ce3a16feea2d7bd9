"""The library names the benchmark harness binds to.

`benchmarks/spans.py` wraps functions and methods of `partible` by name,
and `benchmarks/workloads.py` checks answers through the public API.
Deleting or renaming any of those names breaks the benchmark, not the
library, so no other test would notice.
"""

import importlib
import importlib.util
from pathlib import Path

import partible

_SPANS_FILE = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("benchmark_spans", _SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_and_counter_target_resolves():
    spans = _spans_module()
    for name, module, attr in spans.SPANS + spans.COUNTS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, method = attr.split(".")
            # the recorder replaces the method on the class that defines it
            assert method in vars(getattr(owner, cls_name)), f"{name}: {module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{name}: {module}.{attr}"


def test_names_the_workload_checker_reads():
    for name in ("operator_from_dict", "profile", "parse_polynomial", "Polynomial",
                 "annihilates", "builtin", "ReductionResult"):
        assert hasattr(partible, name), name
    L = partible.builtin("apery").annihilator
    assert partible.annihilates(L, partible.builtin("apery").terms(12))
    Q = partible.parse_polynomial("(2*k+1)^5 + 3")
    result = partible.reduce(Q, L)
    assert result.reassemble(L, partible.profile(L)) == Q
