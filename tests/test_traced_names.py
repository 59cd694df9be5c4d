import importlib
import importlib.util
import os

from monoidpcsp.classify import nf_relation_image, relation_preserving_homs
from monoidpcsp.core import cyclic, enumerate_homs
from monoidpcsp.cosets import coset_closure, generated_subset
from monoidpcsp.model import parse_instance, parse_template
from monoidpcsp.regularize import nf_homs_to_finite
from monoidpcsp.solver import (
    build_sigma,
    minimal_homomorphism,
    projected_semilattice_template,
)
from monoidpcsp.zlinalg import solve_integer

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")
DATA = os.path.join(os.path.dirname(__file__), os.pardir, "src", "monoidpcsp", "data")


def read(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


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
    """Each length and member-count reader accepts what its function really
    returns on a small input, so a function that starts returning a
    generator fails here rather than in a traced benchmark run."""
    spans = load_spans()
    T = parse_template(read("intro_M.nf"))
    N = parse_template(read("introN_3.mon"))
    nf_hom = nf_homs_to_finite(T.carrier, N.carrier)[0]
    # (module, attribute) -> (a small call, the size its reader must give)
    cases = {
        ("monoidpcsp.classify", "relation_preserving_homs"):
            (lambda: relation_preserving_homs(T, N), 2),
        ("monoidpcsp.classify", "nf_relation_image"):
            (lambda: nf_relation_image(nf_hom, T), 1),
        ("monoidpcsp.core", "enumerate_homs"):
            (lambda: enumerate_homs(cyclic(3), cyclic(6)), 3),
        ("monoidpcsp.cosets", "generated_subset"):
            (lambda: generated_subset(cyclic(6), {2}), 3),
        ("monoidpcsp.cosets", "coset_closure"):
            (lambda: coset_closure(cyclic(6), {0, 2}), 3),
        ("monoidpcsp.regularize", "nf_homs_to_finite"):
            (lambda: nf_homs_to_finite(T.carrier, N.carrier), 3),
    }
    readers = {(m, a): f for m, a, f in spans.TRACED
               if f in (spans._length, spans._members)}
    assert readers.keys() == cases.keys()
    for key, (call, size) in cases.items():
        assert readers[key](call()) == size, key



def sigma(T, I):
    h = minimal_homomorphism(projected_semilattice_template(T), I)
    system = build_sigma(T, I, h)
    return system, I.var_count * system.num_coords + system.num_multipliers


def test_sigma_sizes_read_real_systems():
    """The size readers of build_sigma and solve_integer on systems over
    intro_M.nf count what is there: the rows, columns and non-zero
    coefficients of Sigma, and the largest entry of x0 (0 when unsolvable,
    as intro.inst is)."""
    size_of = {(m, a): f for m, a, f in load_spans().TRACED}
    shape = size_of[("monoidpcsp.solver", "build_sigma")]
    bits = size_of[("monoidpcsp.zlinalg", "solve_integer")]
    T = parse_template(read("intro_M.nf"))
    system, cols = sigma(T, parse_instance(read("intro.inst")))
    for row in system.matrix:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns))
        assert all(0 <= j < cols for j in columns)
    nonzeros = sum(a != 0 for row in system.matrix for _, a in row)
    assert shape(system) == (len(system.rhs), cols, nonzeros)
    assert bits(solve_integer(system.matrix, system.rhs, cols)) == 0
    system, cols = sigma(T, parse_instance("instance 4\nREL 0 1 2\nMUL 0 1 3\n"))
    x0, _ = solved = solve_integer(system.matrix, system.rhs, cols)
    assert bits(solved) == max(abs(a).bit_length() for a in x0) > 0
