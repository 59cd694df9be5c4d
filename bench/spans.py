"""Spans around calls into the program's layers, recorded from outside it.

``install()`` wraps each traced public function under every name a
``monoidpcsp`` module binds it to (``from .core import enumerate_homs``
makes a second binding in the importing module), so calls between
modules are seen too.  Spans stay in memory until the pass ends.
``layer_metrics`` turns one pass's spans into the per-layer metrics.
"""

import functools
import sys
import time


def _length(result):
    return len(result)


def _members(result):
    return len(result.members)


def _solution_bits(result):
    if result is None:
        return 0
    x0, _ = result
    return max((abs(a).bit_length() for a in x0), default=0)


def _sigma_shape(system):
    rows = len(system.matrix)
    cols = system.var_count * system.num_coords + system.num_multipliers
    nonzeros = sum(1 for row in system.matrix for a in row if a)
    return (rows, cols, nonzeros)


# (module, attribute, size read from the return value)
TRACED = (
    ("monoidpcsp.cli", "main", None),
    ("monoidpcsp.model", "parse_template", None),
    ("monoidpcsp.model", "parse_instance", None),
    ("monoidpcsp.model", "check_assignment", None),
    ("monoidpcsp.classify", "classify", None),
    ("monoidpcsp.classify", "relation_preserving_homs", _length),
    ("monoidpcsp.classify", "nf_relation_image", _length),
    ("monoidpcsp.classify", "nf_hom_image", None),
    ("monoidpcsp.core", "enumerate_homs", _length),
    ("monoidpcsp.core", "submonoid", None),
    ("monoidpcsp.cosets", "generated_subset", _length),
    ("monoidpcsp.cosets", "coset_closure", _members),
    ("monoidpcsp.regularize", "nf_homs_to_finite", _length),
    ("monoidpcsp.regularize", "to_normal_form", None),
    ("monoidpcsp.regularize", "NFIsomorphism.decode", None),
    ("monoidpcsp.solver", "solve_tractable", None),
    ("monoidpcsp.solver", "projected_semilattice_template", None),
    ("monoidpcsp.solver", "minimal_homomorphism", None),
    ("monoidpcsp.solver", "build_sigma", _sigma_shape),
    ("monoidpcsp.solver", "finite_template_to_nf", None),
    ("monoidpcsp.zlinalg", "solve_integer", _solution_bits),
)


def span_name(module, attr):
    return module.split(".", 1)[1] + "." + attr


class Recorder:
    """Spans as [name, parent index, start, end, size, op index]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1

    def wrap(self, name, fn, size_of):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if size_of is not None:
                span[4] = size_of(result)
            return result

        return traced


def install():
    """Wrap every TRACED function in the loaded monoidpcsp modules and
    return the recorder that collects their spans."""
    rec = Recorder()
    modules = [m for n, m in sys.modules.items()
               if n == "monoidpcsp" or n.startswith("monoidpcsp.")]
    for module, attr, size_of in TRACED:
        name = span_name(module, attr)
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, rec.wrap(name, getattr(cls, meth), size_of))
            continue
        original = getattr(owner, attr)
        traced = rec.wrap(name, original, size_of)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
    return rec


# ---------------------------------------------------------------------------
# Per-layer metrics of one pass

SELF_TIMED = [span_name(m, a) for m, a, _ in TRACED]

SIZES = {
    "cosets.generated_subset.elements": "cosets.generated_subset",
    "classify.nf_relation_image.tuples": "classify.nf_relation_image",
    "cosets.coset_closure.members": "cosets.coset_closure",
    "regularize.nf_homs_to_finite.homs": "regularize.nf_homs_to_finite",
    "core.enumerate_homs.homs": "core.enumerate_homs",
}


def layer_metrics(spans):
    """Per-layer totals of one pass: self time per traced function, call
    and size counts, and the share of operation time the spans cover."""
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {f"{n}.self_s": 0.0 for n in SELF_TIMED}
    for k in SIZES:
        out[k] = 0
    out.update({
        "cosets.generated_subset.calls": 0,
        "classify.witnesses_tried": 0,
        "zlinalg.solve_integer.solution_bits": 0,
        "solver.sigma.rows": 0,
        "solver.sigma.cols": 0,
        "solver.sigma.nonzeros": 0,
    })
    size_of = {v: k for k, v in SIZES.items()}
    enumerated = kept = 0
    main_time = main_children = 0.0
    for i, (name, parent, t0, t1, size, _) in enumerate(spans):
        out[f"{name}.self_s"] += (t1 - t0) - child_time[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name in size_of and size is not None:
            out[size_of[name]] += size
        if name == "cosets.generated_subset":
            out["cosets.generated_subset.calls"] += 1
        elif name == "core.submonoid" and parent_name == "classify.classify":
            out["classify.witnesses_tried"] += 1
        elif name == "zlinalg.solve_integer" and size is not None:
            out["zlinalg.solve_integer.solution_bits"] = max(
                out["zlinalg.solve_integer.solution_bits"], size)
        elif name == "solver.build_sigma" and size is not None:
            for key, value in zip(("rows", "cols", "nonzeros"), size):
                out[f"solver.sigma.{key}"] += value
        elif name == "classify.relation_preserving_homs" and size is not None:
            kept += size
        elif name == "cli.main":
            main_time += t1 - t0
            main_children += child_time[i]
        if (parent_name == "classify.relation_preserving_homs"
                and name in ("core.enumerate_homs", "regularize.nf_homs_to_finite")
                and size is not None):
            enumerated += size
    out["classify.relation_preserving_homs.kept_ratio"] = (
        kept / enumerated if enumerated else 0.0)
    out["trace.coverage"] = main_children / main_time if main_time else 0.0
    return out


def unit_of(metric):
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith(".solution_bits"):
        return "bits"
    if metric.endswith(("_ratio", ".coverage", ".overhead")):
        return "ratio"
    return "count"
