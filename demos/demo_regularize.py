"""Commutative regularization and the coordinate normal form."""

from monoidpcsp.core import (
    cyclic,
    direct_product,
    flipflop1,
    format_monoid,
    semilattice_chain,
)
from monoidpcsp.regularize import (
    ab_reg,
    nf_generator,
    nf_power,
    to_normal_form,
    verify_universal_property,
)
from monoidpcsp.sweep import commutative_regular_sweep

M = flipflop1()
print("source (non-commutative flip-flop):")
print(format_monoid(M))
q = ab_reg(M)
print("commutative regular quotient, classes", q.class_of, ":")
print(format_monoid(q.quotient))
targets = commutative_regular_sweep(3, unique=True)
print("universal property against", len(targets), "small targets:",
      verify_universal_property(q, targets))

for name, N in [("Z/6", cyclic(6)),
                ("Z/2 x chain", direct_product(cyclic(2), semilattice_chain(2)))]:
    iso = to_normal_form(N)
    NF = iso.nf
    print(f"\nnormal form of {name} on generators {list(iso.generators)}:")
    print("  semilattice size:", NF.semilattice.size,
          " coordinates:", NF.num_coords)
    for d in NF.semilattice.elements:
        print(f"  support({d}) = {sorted(NF.lam[d])}, "
              f"relation lattice basis = {NF.xi[d].basis}")
    a = nf_generator(NF, 0)
    print("  generator 0 encodes", iso.decode(a))
    print("  a^2 * a^3 == a^5:",
          NF.mul(nf_power(NF, a, 2), nf_power(NF, a, 3)) == nf_power(NF, a, 5))
