"""Tractability classification for promise templates: a pair (relM, relN)
is tractable exactly when some relation-preserving homomorphism from relM's
carrier into relN's finite carrier has a commutative completely regular
image whose relation image closes, as a coset, inside relN's relation.

The tractable witness comes with a sandwich: the finite template on the
witness image with the coset closure as relation, which sits between relM
and relN.
"""

from .core import (
    CartesianPower,
    enumerate_homs,
    is_commutative,
    is_completely_regular,
    submonoid,
)
from .cosets import coset_closure, is_coset
from .errors import PromiseViolation
from .model import Template, check_pair, finite_carrier, is_nf_template
# nf_hom_image and nf_relation_image live beside NFHom and are re-exported here
from .record import record
from .regularize import ab_reg, homs_into, nf_hom_image, nf_relation_image  # noqa: F401
from .solver import projected_semilattice_template


@record
class Classification:
    verdict: str                 # "Tractable" or "NPHard"
    witness: object = None       # MonoidHom or NFHom, Tractable only
    sandwich: object = None      # finite Template over the witness image
    sandwich_embedding: tuple = None  # sandwich carrier index -> relN element


def _try_witness(relN, image_elems, rel_gens):
    """Tractability test for one candidate hom, given its carrier image and
    a subset of its relation image with the same coset closure (the hom's
    ``relation_generators``), as finite sets over relN's carrier: the
    submonoid on the image must be commutative completely regular, and the
    coset closure of ``rel_gens`` computed inside it must stay in relN's
    relation.  Returns (sandwich, embedding) or None."""
    A, old_of_new, new_of_old = submonoid(relN.carrier, image_elems)
    if not (is_commutative(A) and is_completely_regular(A)):
        return None
    tuples_A = frozenset(tuple(new_of_old[a] for a in t) for t in rel_gens)
    closure_A = coset_closure(CartesianPower(A, relN.arity), tuples_A).members
    if any(tuple(old_of_new[i] for i in t) not in relN.relation for t in closure_A):
        return None
    return Template(A, relN.arity, frozenset(closure_A)), tuple(old_of_new)


def relation_preserving_homs(relM, relN):
    """The list of homomorphisms between carriers that map relM's relation
    into relN's, in deterministic order.  :func:`classify` does not list
    them: it takes the same homs one at a time from ``homs_into``."""
    check_pair(relM, relN)
    return list(homs_into(relM.carrier, relN.carrier, relM.relation, relN.relation))


def classify(relM, relN):
    """Decide the promise template pair.

    The relation-preserving homs are taken one at a time, in the order of
    :func:`relation_preserving_homs`, and the first that passes
    :func:`_try_witness` is the witness; the homs after it are never built.

    Raises PromiseViolation when relM is finite and admits no relational
    homomorphism into relN.  For normal-form relM with a coset relation, a
    relational homomorphism exists exactly in the tractable case, so the
    absence of one is reported as NPHard; a normal-form relM whose projected
    relation is not a coset raises NotACoset, as the solver does.
    """
    nf = is_nf_template(relM)
    if nf:
        projected_semilattice_template(relM)
    check_pair(relM, relN)
    h = None
    for h in homs_into(relM.carrier, relN.carrier, relM.relation, relN.relation):
        got = _try_witness(relN, h.image_set(), h.relation_generators(relM))
        if got is not None:
            sandwich, embedding = got
            return Classification("Tractable", h, sandwich, embedding)
    if h is None and not nf:
        raise PromiseViolation("no relational homomorphism between the templates")
    return Classification("NPHard")


def classify_via_abreg(relM, relN):
    """Classify a finite relM by regularizing it first: tractability is
    equivalent to a relational homomorphism from the commutative
    regularization (with the coset closure of the projected relation)."""
    M = finite_carrier(relM.carrier, "the regularization path")
    if not relation_preserving_homs(relM, relN):
        raise PromiseViolation("no relational homomorphism between the templates")
    quot = ab_reg(M)
    Q = quot.quotient
    projected = frozenset(tuple(quot.class_of[a] for a in t) for t in relM.relation)
    closed = coset_closure(CartesianPower(Q, relM.arity), projected).members
    for g in enumerate_homs(Q, relN.carrier, closed, relN.relation):
        composed = g.compose(quot.projection)
        got = _try_witness(relN, composed.image_set(), composed.relation_generators(relM))
        if got is None:
            continue
        sandwich, embedding = got
        return Classification("Tractable", composed, sandwich, embedding)
    return Classification("NPHard")


def sandwich_check(c, relM, relN):
    """Validate a Tractable classification: relM maps into the sandwich via
    the witness, the sandwich includes into relN, and the sandwich relation
    is a coset."""
    if c.verdict != "Tractable":
        return False
    A = c.sandwich.carrier
    new_of_old = {old: new for new, old in enumerate(c.sandwich_embedding)}
    h = c.witness
    if any(a not in new_of_old for a in h.image_set()):
        return False
    # relM -> A: the witness image of the relation sits in A's relation
    for t in h.relation_image(relM):
        if any(a not in new_of_old for a in t):
            return False
        if tuple(new_of_old[a] for a in t) not in c.sandwich.relation:
            return False
    # A -> relN: inclusion is a relational homomorphism
    for t in c.sandwich.relation:
        if tuple(c.sandwich_embedding[i] for i in t) not in relN.relation:
            return False
    return is_coset(CartesianPower(A, c.sandwich.arity), c.sandwich.relation)
