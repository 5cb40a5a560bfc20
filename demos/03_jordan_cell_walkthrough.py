"""The whole construction, by hand, for the 2x2 nilpotent Jordan cell.

Over the Hardy-space kernel (all a_n = 1) the cell T e_0 = e_1, T e_1 = 0 is
a pure contraction whose characteristic function is the scalar z^2: the
defect spaces are one-dimensional and the classical one-variable formula
-T + z D_{T*} (I - z T*)^{-1} D_T collapses to z -> z^2. Every object the
package builds can be read off explicitly here, with exact rationals.
"""

from fractions import Fraction

import numpy as np

from cnpchar import (
    OperatorTuple,
    build_charfn,
    build_dilation,
    build_multiplier,
    defect_data,
    evaluation_gap,
    factor_through_pick,
    factorization_residual,
    functional_model,
    k_inner_subspace,
    model_tuple,
    szego_kernel,
)

k = szego_kernel(dim=1, truncation=24)
t = model_tuple(k, dim=1, degree_cut=1, mode="exact")
# the Hardy weights are all 1, so the monomial basis is already orthonormal
t = OperatorTuple(t.mats, None, t.basis_labels, t.nilpotency_bound, t.kernel)
print("T =", [[str(x) for x in row] for row in t.mats[0].tolist()])

# k = s: the factorization is trivial and the outer space vanishes. One
# DefectData feeds both the dilation and the characteristic function.
fac = factor_through_pick(k, k)
dd = defect_data(t, k, pick_factor=k)
print("defect^2 =", [[str(x) for x in row] for row in dd.defect_sq.tolist()])

# The dilation isometry sends e_0 -> 1 (x) delta and e_1 -> z (x) delta.
dil = build_dilation(dd, target_degree=5)
print("V columns:", dil.matrix[:3].tolist())

cfd = build_charfn(dd, fac, support_cap=4, constant_cap=4)
print("\nTaylor support of theta:", sorted(cfd.taylor))
print("theta_2 =", cfd.taylor[(2,)].tolist())
# theta at a rational point stays exact; the gap to the direct formula is 0
value, gap = evaluation_gap(cfd, [Fraction(1, 2)])
print("theta(1/2) =", value.tolist(), "gap to the direct formula:", gap)

# The induced multiplier is the double shift, and together with V it
# partitions the identity of the truncated target space exactly. It is held
# as an index plan, source block -> target block with a weight, and the
# Gram M M* that the partition check reads: a window this small holds it as
# a dense array (a large, sparse one as entries at the positions the plan
# reaches); no dense M is formed. Its target window is the dilation's window,
# and its source window the degrees up to 5 - 2 = 3, so no image leaves it.
mult = build_multiplier(cfd, dil)
print("\nmultiplier plan (double shift): source monomial -> target monomial, weight")
for i, j, w in zip(mult.sources, mult.targets, mult.weights):
    print(f"  z^{mult.source.labels[i][0]} -> z^{mult.window.labels[j][0]}  {w}")
print("M M* =")
print(np.asarray(mult.gram, dtype=float))
# the dense matrix is scattered through the same plan when it is read
print("dense M:")
print(np.asarray(mult.matrix, dtype=float))
fr = factorization_residual(cfd, dil, mult)
print(f"V V* + M M* - I up to degree {fr.restricted_degree}:", fr.restricted,
      "(exact:", fr.restricted_exact, ")")

# z^2 is inner: the whole (one-dimensional) constant space is isometric and
# orthogonal to its own coordinate shifts.
ki = k_inner_subspace(cfd)
print("\nisometric constant subspace dimension:", ki.dim,
      "shift-orthogonality residual:", ki.shift_residual)

# Compressing the coordinate multiplier to Ran V recovers T.
model, equality = functional_model(cfd, dil, fr)
print("functional model equals T up to", equality)
print("recovered matrix:\n", np.asarray(model.mats[0]))
