"""Set products, coset closure, and the splitting constants L(M) and K(M).

Operations here are generic over any monoid-like object exposing
``elements``, ``identity`` and ``mul`` (both :class:`FiniteMonoid` and
:class:`CartesianPower` qualify), so the same code runs inside Cartesian
powers without materializing their tables.  The element primitives
(idempotent power, regularity, inverse, generated submonoid) come from
:mod:`core`.  Cosets are only meaningful in a commutative ambient monoid.
"""

from .core import (
    CartesianPower,
    closed_under,
    d_of,
    generated_subset,  # re-exported for callers of this module
    idempotent_constant,
    inverse,
    is_commutative,
    is_completely_regular,
    is_regular_element,
    submonoid,
)
from .errors import MonoidError, NotCommutative, NotRegular
from .record import record


def _check_commutative(ops):
    base = ops.base if isinstance(ops, CartesianPower) else ops
    if not is_commutative(base):
        raise NotCommutative("coset operations need a commutative ambient monoid")


def setprod(ops, U, V):
    """The set product {s*t : s in U, t in V}."""
    return frozenset(ops.mul(s, t) for s in U for t in V)


def _set_powers(ops, U, length):
    """i -> U^x(i+1) for i below length.  U^x(k+1) = U^xk x U depends on
    U^xk alone, so the powers cycle from their first repeat on: only the
    powers up to it are formed, and any later one is read off the cycle."""
    seq, at = [frozenset(U)], {}
    while len(seq) < length and seq[-1] not in at:
        at[seq[-1]] = len(seq) - 1
        seq.append(setprod(ops, seq[-1], U))
    start = at.get(seq[-1], 0)      # after a repeat, seq[start:-1] is the cycle
    return lambda i: seq[i if i < len(seq) else
                         start + (i - start) % (len(seq) - 1 - start)]


def tensor_power(ops, U, n):
    """The n-fold set product U x ... x U."""
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    return _set_powers(ops, U, n)(n - 1)


def dagger_set(ops, U):
    """Elementwise a -> a * d_a."""
    return frozenset(ops.mul(a, d_of(ops, a)) for a in U)


@record
class CosetData:
    """A validated coset: members satisfy U x (U^-1 x U) = U."""

    members: frozenset


def coset_closure(ops, U):
    """The coset [U] = U x <U^-1 x U> generated by a regular set U.

    Neither U^-1 x U nor U x <U^-1 x U> is formed as a set product.  Write
    e_u = u * u^-1 for the idempotent of u's group, and fix one member r_e
    of U for each idempotent e that occurs.  For u, v in U with e = e_u and
    f = e_v, commutativity gives

        (u^-1 r_e)(r_e^-1 r_f)(r_f^-1 v) = u^-1 (r_e r_e^-1)(r_f r_f^-1) v
                                         = u^-1 e f v = u^-1 v,

    as e is the identity of u^-1's group and f that of v's.  Each factor is
    itself a difference, as r_e and r_f lie in U, so the about 2|U|
    candidates of :func:`_difference_candidates` generate the same submonoid
    S as U^-1 x U.  Those that lie outside the submonoid built so far are
    kept as its generators (a few in practice), and the closure is U closed
    under multiplication by the kept generators.

    The result C is checked before it is returned: C*g lies in C for every
    kept generator g, so C x S <= C; and every candidate recomputed from C
    lies in S, so C^-1 x C <= S by the same factorization.  Together they
    give the coset equation C x (C^-1 x C) <= C.

    The empty set is a degenerate coset with [{}] = {}: it has no
    candidates, the closure of {} is {}, and the check holds vacuously.
    """
    _check_commutative(ops)
    U = frozenset(U)
    gens, S = _difference_monoid(ops, U)
    closure = closed_under(ops, U, gens)
    if not (all(ops.mul(c, g) in closure for c in closure for g in gens)
            and all(d in S for d in _difference_candidates(ops, closure))):
        raise MonoidError("internal: closure fails the coset equation")
    return CosetData(closure)


def _difference_candidates(ops, U):
    """u^-1 r_e and r_e^-1 u for each u in U, and r_e^-1 r_f for each pair
    of representatives, where r_e is the first member of U met whose
    idempotent u * u^-1 is e.  Raises NotRegular for an irregular member."""
    inv = {u: inverse(ops, u) for u in U}
    rep = {}
    for u in U:
        r = rep.setdefault(ops.mul(u, inv[u]), u)
        yield ops.mul(inv[u], r)
        yield ops.mul(inv[r], u)
    for r in rep.values():
        for s in rep.values():
            yield ops.mul(inv[r], s)


def _difference_monoid(ops, U, within=None):
    """(gens, S): the candidates that lie outside the submonoid generated by
    the ones kept before them, and the submonoid S = <U^-1 x U> they
    generate.  In a commutative monoid <S, d> = S x <d>, so S grows by
    closing it under d alone.  Given a set ``within``, it returns None at
    the first kept d with U x d not inside ``within``, before S grows by d."""
    gens, S = [], frozenset((ops.identity,))
    for d in _difference_candidates(ops, U):
        if d not in S:
            if within is not None and any(ops.mul(u, d) not in within for u in U):
                return None
            gens.append(d)
            S = closed_under(ops, S, (d,))
    return gens, S


def is_coset(ops, U):
    """Whether U is a coset: a set of regular elements with [U] = U.

    [U] = U x <U^-1 x U> contains U, as the identity lies in <U^-1 x U>.
    If U satisfies the coset equation U x (U^-1 x U) <= U, multiplying by
    one difference at a time gives U x <U^-1 x U> <= U, so [U] = U;
    conversely [U] = U gives U x (U^-1 x U) <= [U] = U.  The candidates
    that :func:`coset_closure` keeps generate <U^-1 x U>, so [U] = U
    exactly when U x g <= U for each kept g: U closed under them adds
    nothing.  :func:`_difference_monoid` checks each g against U before S
    grows by it, so a set that is not a coset is refused at its first
    product outside U, before its possibly far larger closure is built.

    The empty set is a coset; a set with an irregular member is not.
    """
    _check_commutative(ops)
    U = frozenset(U)
    try:
        return _difference_monoid(ops, U, within=U) is not None
    except NotRegular:
        return False


def all_cosets(M):
    """Every coset of a small commutative monoid, by subset enumeration."""
    _check_commutative(M)
    out = []
    regular = [a for a in M.elements if is_regular_element(M, a)]
    for mask in range(1 << len(regular)):
        U = frozenset(regular[i] for i in range(len(regular)) if mask >> i & 1)
        if is_coset(M, U):
            out.append(U)
    return out


# ---------------------------------------------------------------------------
# Splitting constants


def _nonempty_subsets(M):
    elems = list(M.elements)
    for mask in range(1, 1 << len(elems)):
        yield frozenset(elems[i] for i in range(len(elems)) if mask >> i & 1)


def splitting_index(M):
    """Least n0 >= 1 such that [R]^xn = R^xn for every non-empty R and every
    n0 <= n <= n0 + |M|, with stabilization of |R^xn| confirmed.

    M must be a finite commutative completely regular monoid.
    """
    _check_commutative(M)
    if not is_completely_regular(M):
        raise NotRegular("splitting_index needs a completely regular monoid")
    window = M.size
    horizon = 4 * M.size * M.size + window + 8
    best = 1
    for R in _nonempty_subsets(M):
        C = coset_closure(M, R).members
        rpow = _set_powers(M, R, horizon + window)
        cpow = _set_powers(M, C, horizon + window)
        n_R = None
        for n in range(1, horizon + 1):
            in_window = range(n - 1, n + window)
            if all(rpow(m) == cpow(m) for m in in_window) and \
                    len(rpow(n - 1)) == len(rpow(n + window - 1)):
                n_R = n
                break
        if n_R is None:
            raise MonoidError("splitting index did not stabilize")
        best = max(best, n_R)
    return best


def dagger_splitting_bound(M):
    """The constant K = max(L, 2k|M|) with L the splitting index of the
    regular part and k the idempotent constant."""
    _check_commutative(M)
    dag = dagger_set(M, M.elements)
    Md, _, _ = submonoid(M, dag)
    L = splitting_index(Md)
    k = idempotent_constant(M)
    return max(L, 2 * k * M.size)


def verify_dagger_splitting(M, K, n_max):
    """Exhaustively check [R_dagger]^xn <= R^xn for all R and K <= n <= n_max."""
    _check_commutative(M)
    for R in _nonempty_subsets(M):
        closed = coset_closure(M, dagger_set(M, R)).members
        cpow = _set_powers(M, closed, n_max)
        rpow = _set_powers(M, R, n_max)
        if any(not cpow(n - 1) <= rpow(n - 1)
               for n in range(max(K, 1), n_max + 1)):
            return False
    return True
