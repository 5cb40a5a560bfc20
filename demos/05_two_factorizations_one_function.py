"""Two CNP factorizations of one kernel, and what they share.

The product of the Drury-Arveson and Dirichlet kernels factors through
either of its factors. Each factorization yields its own characteristic
function for the same tuple, living over a different domain space; but both
multipliers factor the same projection I - V V^*, so the Gram matrices of
the families s_{i,z} (x) theta_i(z)^* eta agree and a partial isometry
matches the two families. Coincidence, by contrast, is a strict test: it
holds for unitarily conjugated tuples (the upper bound is at rounding
level) and fails across different Jordan structures (the lower bound,
which no pair of unitaries can beat, is far from 0).
"""

import numpy as np

from cnpchar import (
    OperatorTuple,
    align_factorizations,
    build_charfn,
    cauchy_product,
    coincidence_residual,
    defect_data,
    dirichlet_kernel,
    drury_arveson_kernel,
    factor_through_pick,
    model_tuple,
    szego_kernel,
)
from cnpchar.presets import sample_points

da = drury_arveson_kernel(dim=1, truncation=48)
dirichlet = dirichlet_kernel(dim=1, truncation=48)
k = cauchy_product(da, dirichlet)
t = model_tuple(k, dim=1, degree_cut=1, mode="float")

fac_da = factor_through_pick(k, da)
fac_dir = factor_through_pick(k, dirichlet)
cfd_da = build_charfn(defect_data(t, k, da), fac_da, support_cap=14, constant_cap=14)
cfd_dir = build_charfn(defect_data(t, k, dirichlet), fac_dir, support_cap=14, constant_cap=14)
print("domain dims:", cfd_da.domain_dim, "vs", cfd_dir.domain_dim)

points = sample_points(np.random.default_rng(0), 20, dim=1, scale=0.5)
out = align_factorizations(cfd_da, cfd_dir, points, source_degree=18)
print("gram residual between the two factorizations:", out.gram_residual)
print("agreement with the I - V V* compression:", out.reference_residual)
# By Douglas' lemma, equal Grams give a partial isometry that maps the first
# family onto the second: the two multipliers factor the same projection.

# Coincidence: conjugating the tuple by an orthogonal matrix produces Taylor
# coefficients that match up to constant unitaries on both sides...
w = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))[0]
conj = OperatorTuple(tuple(w.T @ m @ w for m in t.mats), None, None, t.nilpotency_bound, k)
cfd_conj = build_charfn(defect_data(conj, k, da), fac_da, support_cap=14, constant_cap=14)
# coincidence_residual returns a certified lower bound (from the singular
# values of each coefficient) and the best mismatch a search reached
print("\ncoincidence bounds (lower, upper), conjugated tuple:", coincidence_residual(cfd_da, cfd_conj))

# ... while structurally different tuples cannot be matched, and the lower
# bound proves it.
hardy = szego_kernel(dim=1, truncation=24)
fac = factor_through_pick(hardy, hardy)
two_cells = np.zeros((4, 4)); two_cells[1, 0] = 1.0; two_cells[3, 2] = 1.0
chain = np.zeros((4, 4)); chain[1, 0] = 1.0; chain[2, 1] = 1.0
t_a = OperatorTuple((two_cells,), None, None, 3, hardy)
t_b = OperatorTuple((chain,), None, None, 3, hardy)
cfd_a = build_charfn(defect_data(t_a, hardy, hardy), fac, 6, 6)
cfd_b = build_charfn(defect_data(t_b, hardy, hardy), fac, 6, 6)
print("coincidence bounds (lower, upper), two cells vs one chain:", coincidence_residual(cfd_a, cfd_b))
