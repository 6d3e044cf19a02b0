"""The Weyl operator basis and the nine two-qutrit Bell projectors.

Shows orthogonality of the shift-and-phase basis, the Bell projector family
built from it, and the coefficient table of an operator in the U (x) U basis.
"""

import numpy as np

from entwit import (bell_projector, hs_inner, max_entangled, weyl_expand,
                    weyl_operator)

d = 3
print("U_00 is the identity:",
      np.allclose(weyl_operator(d, (0, 0)), np.eye(d)))
print("U_01 acts as the cyclic shift |k> -> |k+1>:")
print(np.round(weyl_operator(d, (0, 1)).real, 3))

# trace orthogonality: Tr(U^dag V) = d on the diagonal, 0 elsewhere
gram = np.zeros((9, 9))
labels = [(n, m) for n in range(d) for m in range(d)]
for i, (n, m) in enumerate(labels):
    for j, (l, k) in enumerate(labels):
        gram[i, j] = abs(np.vdot(weyl_operator(d, (n, m)),
                                 weyl_operator(d, (l, k))))
print("\nGram matrix of the nine Weyl operators (abs):")
print(np.round(gram, 12))

phi = max_entangled(d)
print("\nmaximally entangled vector:", np.round(phi, 4))

# the nine Bell projectors are orthogonal and resolve the identity
total = sum(bell_projector(d, idx).entries for idx in labels)
print("sum of all nine Bell projectors equals 1:",
      np.allclose(total, np.eye(9)))
print("Tr(P00 P10) =", hs_inner(bell_projector(d, (0, 0)).op,
                                bell_projector(d, (1, 0)).op).real)

# expansion of P00: nine paired coefficients of 1/9, nothing else
expansion = weyl_expand(bell_projector(d, (0, 0)).op)
print("\nsignificant coefficients of |phi+><phi+|:")
for left, right, coeff in expansion.significant():
    print(f"  U{left} (x) U{right}: {coeff:.4f}")
