import importlib
import importlib.util
import os

from monoidpcsp.core import cyclic
from monoidpcsp.cosets import coset_closure

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    """Every (module, attribute) the benchmark traces is bound in the
    package, so a refactor that drops one fails here rather than in a traced
    benchmark run."""
    missing = []
    for module, attr, _ in load_spans().TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_traced_sizes_read_the_results():
    size_of = {(m, a): f for m, a, f in load_spans().TRACED}
    members = size_of[("monoidpcsp.cosets", "coset_closure")]
    assert members(coset_closure(cyclic(6), {0, 2})) == 3
