"""Characteristic functions of pure tuples for kernels with a CNP factor.

Given a factorization k = s * g with s a complete Nevanlinna-Pick kernel and
g a non-negative coefficient series, and a pure 1/k-contraction T, the
construction assembles a block unitary

    U = [[R*, B], [P, D]] : H (+) (defect(R) (+) complement)  ->  Hrow (+) E

out of four ingredients: the row contraction R = (sqrt(b_alpha^{(s)}) T^alpha)
acting from finitely many labelled copies of H, the g-weighted embedding
P : h -> (sqrt(g_alpha) Defect (T^alpha)^* h) into E (one copy of Ran Defect
per nonzero g coefficient), the unitary identification u of Ran(pick defect)
with Ran P, and the defect of R. The characteristic function is then

    theta(z) = sum_alpha sqrt(g_alpha) D_alpha z^alpha
               + Defect k_z(T)^* Z(z) B,

with Z(z) the scalar row (sqrt(b_alpha^{(s)}) z^alpha). Its Taylor
coefficients are the primary representation here; pointwise evaluation is a
derived, cross-checked view. The induced multiplier M_theta from the
s-space to the k-space complements the dilation isometry:
V V^* + M_theta M_theta^* = I.

All row/column index sets are materialized on finite degree windows. For
nilpotent tuples the windowed Taylor coefficients on the retained domain
columns equal the true ones exactly; windowing only removes domain columns,
whose contributions live at target degrees above the window. The
factorization residual is therefore measured on the exact degree range only.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import (
    EXACT,
    FLOAT,
    ExactnessError,
    Entries,
    Scalars,
    above,
    adjoint,
    beside,
    block_eigh,
    formed,
    hermitian_part,
    is_exact_array,
    is_exactly_zero,
    max_abs,
    minus_identity,
    ordered_sum,
    point_stack,
    polar_orthogonal,
    psd_root,
    range_complement,
    scatter_add,
    single_term_product,
    sparse_product,
    spectral_norm,
    to_float_array,
)
from .dilation import DilationData, MonomialWindow
from .multiindex import (
    BlockSpace,
    count_up_to_degree,
    degree,
    enumerate_up_to_degree,
    graded_space,
)
from .operators import PSD_TOL, DefectData, OperatorTuple, operator_series
from .series import KernelFactorization, KernelSeries, norms_sq, reciprocal_complement

# largest ||u Gamma - embedding|| for which the range identification u is well defined
IDENTITY_TOL = 1e-8
# the settings of k_inner_subspace, align_factorizations, functional_model
# and coincidence_residual; each docstring says how its own are read
ISOMETRY_TOL = 1e-9
SHIFT_CHECK_DEGREE = 3
GRAM_MISMATCH_TOL = 1e-6
PARTITION_TOL = 1e-8
COINCIDENCE_ITERATIONS = 60


class CharFnBuildError(RuntimeError):
    """The block construction failed one of its defining identities."""


class EmptyKInnerError(RuntimeError):
    """No unit eigenvalue in the multiplier Gram: the isometric subspace is missing."""


@dataclass(frozen=True, eq=False)
class TaylorCoefficients(Mapping):
    """theta's Taylor coefficients, as a mapping from labels gamma to r x dom matrices theta_gamma.

    They are held as ``entries``, the row-major (labels, slots, values) of
    the (L, r dom) matrix whose row l is the flattened coefficient at the
    l-th label of ``space`` (block size r), in the arithmetic they were
    built in; a coefficient or the dense (L, r, dom) stack ``coefficients``
    is formed from them when read, +0 off the entries. A label whose
    coefficient is exactly zero is absent.
    """

    space: BlockSpace
    entries: Entries

    @classmethod
    def of(cls, space: BlockSpace, stack: np.ndarray) -> "TaylorCoefficients":
        """The coefficients of a dense (L, r, dom) stack, read as its nonzero entries."""
        return cls(space, Entries.of(stack.reshape(len(stack), -1)))

    def __getitem__(self, label) -> np.ndarray:
        i, e, shape = self.space.index[label], self.entries, (self.space.block_dim, self.dom)
        at = slice(*np.searchsorted(e.rows, [i, i + 1]))
        return Entries(shape, *np.divmod(e.cols[at], self.dom), e.values[at]).matrix

    def __iter__(self):
        return iter(self.space.labels)

    def __len__(self) -> int:
        return len(self.space.labels)

    @property
    def dom(self) -> int:
        return self.entries.shape[1] // self.space.block_dim

    @property
    def coefficients(self) -> np.ndarray:
        """The dense (L, r, dom) stack, formed from the entries on each read, read-only."""
        stack = self.entries.matrix.reshape(len(self), self.space.block_dim, self.dom)
        stack.setflags(write=False)
        return stack

    @property
    def max_degree(self) -> int:
        return int(self.space.degrees.max(initial=0))

    @property
    def scalars(self) -> Scalars:
        return EXACT if is_exact_array(self.entries.values) else FLOAT


@dataclass(eq=False)
class CharFnData:
    """All blocks of the characteristic-function construction for one tuple.

    ``defect`` is the DefectData the blocks were built from: the tuple, its
    defects and the basis of Ran Defect that theta's rows are written in.
    ``d_block`` is D = [-u R Q_R, -complement], held by its nonzero
    entries (``Entries``; ``d_block.matrix`` is the dense D, +0 off them).
    The complement of Ran P in E is read back from D (``complement_basis``).
    ``taylor`` holds the Taylor coefficients of theta, which every later
    step reads. ``diagnostics`` records the residuals of every defining
    identity checked during the build.
    """

    factorization: KernelFactorization
    defect: DefectData
    b_support: BlockSpace
    g_support: BlockSpace
    embedding: np.ndarray
    range_unitary: np.ndarray
    row_contraction: np.ndarray
    row_defect: np.ndarray
    row_defect_basis: np.ndarray
    b_block: np.ndarray
    d_block: Entries
    taylor: TaylorCoefficients
    support_cap: int
    constant_cap: int
    diagnostics: dict

    @property
    def ops(self) -> OperatorTuple:
        return self.defect.ops

    @property
    def exact(self) -> bool:
        return self.ops.exact

    @property
    def kernel(self) -> KernelSeries:
        return self.factorization.kernel

    @property
    def pick_factor(self) -> KernelSeries:
        return self.factorization.pick_factor

    @property
    def fiber_dim(self) -> int:
        return self.defect.ran_defect_basis.shape[1]

    @property
    def domain_dim(self) -> int:
        return self.d_block.shape[1]

    @property
    def complement_basis(self) -> np.ndarray:
        """The columns that complement Ran P in E: D's trailing entries, negated back bit for bit, +0 off them."""
        d, p = self.d_block, self.row_defect_basis.shape[1]
        at = d.cols >= p
        return Entries((d.shape[0], d.shape[1] - p), d.rows[at], d.cols[at] - p, -d.values[at]).matrix


def build_charfn(
    defect: DefectData,
    factorization: KernelFactorization,
    support_cap: int,
    constant_cap: int,
) -> CharFnData:
    """Run the whole block construction and return its data.

    ``defect`` is ``defect_data(t, fac.kernel, fac.pick_factor)``, the same
    object ``build_dilation`` takes, so theta and the dilation share one
    basis of Ran Defect; one for another kernel or pick factor raises
    ValueError. ``support_cap`` bounds the degrees of the row-contraction
    labels (nonzero b coefficients of the CNP factor), ``constant_cap`` the
    labels of E (nonzero g coefficients); ``presets.Configuration`` sizes
    both. Raises NotPureError for impure tuples, CharFnBuildError when the row
    defect fails positivity ("R is not a contraction") or when the range
    identification u is ill-defined.

    E's labels are the graded space of degree <= ``constant_cap``, tables
    shared, when g has no zero coefficient up to it. The block unitarity of
    U is read from entries: U's are those of the dense block row [R*, B]
    above those of P beside D (``_linalg.above`` and ``beside``), and the
    E-side Gram P P* + D D* and U's two Grams are sparse products, whose
    norms past the identity read their slots when they take slots
    (``_linalg.ordered_sum``); no dense U is formed.

    D and the Taylor coefficients are held by their nonzero entries, and no
    dense E x domain array is formed: the complement comes as unit columns
    where it is made of them (``_linalg.range_complement``), and theta's
    sums run on the first p columns, where B is not zero, in the order of
    the dense sums, so every entry has the bits of the dense stack.
    """
    kernel = factorization.kernel
    pick = factorization.pick_factor
    g = factorization.positive_part
    if defect.kernel is not kernel or defect.pick_factor is not pick:
        raise ValueError("defect data is not for this factorization's kernel and pick factor")
    t = defect.ops
    if kernel.dim != t.num_vars:
        raise ValueError("factorization dimension does not match the tuple")
    if t.weights is not None:
        raise ExactnessError("the tuple must be given on an orthonormal basis")
    bound = t.nilpotency_bound
    b_s = reciprocal_complement(pick)
    if b_s.truncation < support_cap or g.truncation < constant_cap:
        raise ValueError("series truncation below the requested caps")

    defect.require_pure()
    if defect.defect is None or defect.pick_defect is None:
        raise ExactnessError("defect roots are not rational; use float mode")
    sc = t.scalars
    delta, q_delta = defect.defect, defect.ran_defect_basis
    gamma_sq, gamma, gamma_pinv = defect.pick_defect_sq, defect.pick_defect, defect.pick_defect_pinv
    r = q_delta.shape[1]
    n = t.size
    diagnostics: dict = {"purity_residual": defect.purity_residual}

    # every T^alpha read below, the betas first; zero above the nilpotency degree
    beta_top = min(bound if bound is not None else max(support_cap, constant_cap), kernel.truncation)
    top = max(support_cap, constant_cap, beta_top)
    labels, powers = t.powers(top)
    # the labels whose degree carries a b (1..support_cap) or g (0..constant_cap) coefficient that is
    # nonzero when it is exact, and above the factorization's tolerance (not rounding noise) when it is float
    b_mask, g_mask = np.zeros((2, top + 1), dtype=bool)
    b_floor, g_floor = (0 if series.exact else factorization.tolerance for series in (b_s, g))
    b_mask[1 : support_cap + 1] = [c > b_floor for c in b_s.coefficients[1 : support_cap + 1]]
    g_mask[: constant_cap + 1] = [c > g_floor for c in g.coefficients[: constant_cap + 1]]
    b_pos, g_pos = np.flatnonzero(b_mask[labels.degrees]), np.flatnonzero(g_mask[labels.degrees])
    row_space = BlockSpace([labels.labels[i] for i in b_pos], n)
    # E holds every graded label of degree <= constant_cap when g has no zero coefficient there
    g_full = g_mask[: constant_cap + 1].all()
    e_space = BlockSpace(graded_space(t.num_vars, constant_cap) if g_full else [labels.labels[i] for i in g_pos], r)
    root_g = sc.roots(e_space.lift(g, sc))
    root_b = sc.roots(row_space.lift(b_s, sc))

    # Q* Defect (T^beta)^* for every beta with |beta| <= beta_top, as one (L_beta, r, n) stack
    n_betas = count_up_to_degree(t.num_vars, beta_top)
    defect_rows = q_delta.conj().T @ delta @ adjoint(powers[:n_betas])

    # g-weighted embedding of H into E
    embedding = sc.zeros((e_space.dim, n), t.dtype)
    inside = g_pos < n_betas
    embedding.reshape(len(g_pos), r, n)[inside] = root_g[inside][:, None, None] * defect_rows[g_pos[inside]]
    embedding_gap = embedding.conj().T @ embedding - gamma_sq
    diagnostics["embedding_gram_residual"] = spectral_norm(embedding_gap)
    if sc.exact:
        diagnostics["embedding_gram_exact"] = is_exactly_zero(embedding_gap)

    # unitary identification of Ran(pick defect) with Ran(embedding)
    range_unitary = embedding @ gamma_pinv
    u_residual = spectral_norm(range_unitary @ gamma - embedding)
    diagnostics["range_unitary_residual"] = u_residual
    if u_residual > IDENTITY_TOL:
        raise CharFnBuildError(
            f"u ill-defined: ||u Gamma - embedding|| = {u_residual:.3e} "
            "(embedding Gram does not match the pick defect)"
        )
    # the complement of Ran P as entries: unit columns, with no E x E identity, where it is made of them
    complement = range_complement(embedding)

    # row contraction from the weighted powers, and its defect
    row = (root_b[:, None, None] * powers[b_pos]).swapaxes(0, 1).reshape(n, row_space.dim)
    row_gram = row.conj().T @ row
    row_root = psd_root(sc.eye(row_space.dim) - row_gram)
    lo = row_root.min_eigenvalue
    if lo < -PSD_TOL:
        raise CharFnBuildError(f"row contraction fails: eigenvalue {lo:.3e} of I - R*R")
    row_defect, row_defect_basis = row_root.root, row_root.basis
    diagnostics["row_defect_intertwining"] = spectral_norm(
        row @ row_defect - gamma @ row
    )
    diagnostics["row_gram_vs_pick_defect"] = spectral_norm(
        row @ row.conj().T - (sc.eye(n) - gamma_sq)
    )

    p = row_defect_basis.shape[1]
    q_h = complement.shape[1]
    dom = p + q_h
    b_block = np.hstack([row_defect @ row_defect_basis, sc.zeros((row_space.dim, q_h))])
    # D = [-u R Q_R, -complement], as entries
    d_left = np.negative(range_unitary @ (row @ row_defect_basis))
    negated = Entries(complement.shape, complement.rows, complement.cols, np.negative(complement.values))
    d_block = beside(Entries.of(d_left), negated)

    # block unitarity of U = [[R*, B], [P, D]]; the E-side Grams and U's own are read from entries. D B* is one
    # product an output when no row of D holds two entries, else the dense product
    rel1 = minus_identity(row_gram + b_block @ b_block.conj().T)
    cross = single_term_product(d_block, b_block.conj().T)
    if cross is None:
        cross = d_block.matrix @ b_block.conj().T
    rel2 = embedding @ row + cross
    rel3 = minus_identity(sparse_product(embedding, embedding.conj().T) + sparse_product(d_block, d_block.adjoint))
    diagnostics["block_relation_row"] = spectral_norm(rel1)
    diagnostics["block_relation_cross"] = spectral_norm(rel2)
    diagnostics["block_relation_e"] = spectral_norm(rel3)
    u = above(Entries.of(np.hstack([row.conj().T, b_block])), beside(Entries.of(embedding), d_block))
    diagnostics["unitary_gram"] = spectral_norm(minus_identity(sparse_product(u.adjoint, u)))
    diagnostics["unitary_cogram"] = spectral_norm(minus_identity(sparse_product(u, u.adjoint)))

    # theta_gamma = sqrt(g_gamma) D_gamma
    #     + sum_{alpha+beta=gamma} a_beta sqrt(b_alpha) Q* Defect (T^beta)^* B_alpha,
    # summed in place over the labels in order of first appearance; the g
    # labels lead and start at their first term. B_alpha is zero past its
    # first p columns, so the sums run on those columns alone, and the
    # trailing columns hold sqrt(g_gamma) D_gamma's entries.
    a = graded_space(t.num_vars, beta_top).lift(kernel, sc)
    exps = labels.exponents
    sums = (exps[b_pos, None, :] + exps[None, :n_betas, :]).reshape(-1, t.num_vars)
    gammas = np.concatenate([exps[g_pos], sums])
    first = np.unique(np.ravel_multi_index(gammas.T, gammas.max(axis=0, initial=0) + 1), return_index=True)[1]
    gamma_space = BlockSpace([tuple(x) for x in gammas[np.sort(first)].tolist()], r)
    targets = gamma_space.positions(sums).reshape(len(b_pos), n_betas)
    left = sc.zeros((len(gamma_space.labels), r, p), t.dtype)
    np.multiply(root_g[:, None, None], d_left.reshape(len(g_pos), r, p), out=left[: len(g_pos)])
    for alpha_targets, scale, block in zip(targets, root_b, b_block.reshape(len(b_pos), n, dom)):
        for target, a_beta, rows in zip(alpha_targets, a, defect_rows):
            left[target] += (a_beta * scale) * (rows @ block)[:, :p]
    taylor = _taylor_entries(gamma_space, left, d_block, root_g)

    return CharFnData(
        factorization=factorization,
        defect=defect,
        b_support=row_space,
        g_support=e_space,
        embedding=embedding,
        range_unitary=range_unitary,
        row_contraction=row,
        row_defect=row_defect,
        row_defect_basis=row_defect_basis,
        b_block=b_block,
        d_block=d_block,
        taylor=taylor,
        support_cap=support_cap,
        constant_cap=constant_cap,
        diagnostics=diagnostics,
    )


def _taylor_entries(space: BlockSpace, left: np.ndarray, d_block: Entries, root_g: np.ndarray) -> TaylorCoefficients:
    """The coefficients from ``left``, their (L, r, p) leading columns over ``space``, and
    sqrt(g_gamma) D_gamma's trailing entries on E's labels, which lead; only the labels with an entry are kept."""
    count, r, p = left.shape
    dom = d_block.shape[1]
    tail = d_block.cols >= p
    rows = d_block.rows[tail]
    trailing = Entries((count * r, dom - p), rows, d_block.cols[tail] - p, root_g[rows // r] * d_block.values[tail])
    theta = beside(Entries.of(left.reshape(-1, p)), trailing)
    (keep, at), fibers = np.unique(theta.rows // r, return_inverse=True), theta.rows % r
    entries = Entries((len(keep), r * dom), at, fibers * dom + theta.cols, theta.values)
    return TaylorCoefficients(BlockSpace([space.labels[i] for i in keep], r), entries)


def charfn_blocks_dict(cfd: CharFnData) -> dict:
    """All block matrices and Taylor coefficients as dense row-major float arrays.

    Every matrix entry carries a shape header so consumers can reassemble the
    blocks without knowing the window layouts.
    """

    def dense(m) -> dict:
        arr = to_float_array(np.asarray(m))
        return {"shape": list(arr.shape), "entries": (np.real_if_close(arr).astype(float) + 0.0).tolist()}

    return {
        "fiber_dim": cfd.fiber_dim,
        "domain_dim": cfd.domain_dim,
        "b_support": [list(l) for l in cfd.b_support.labels],
        "g_support": [list(l) for l in cfd.g_support.labels],
        "defect": dense(cfd.defect.defect),
        "pick_defect": dense(cfd.defect.pick_defect),
        "ran_defect_basis": dense(cfd.defect.ran_defect_basis),
        "embedding": dense(cfd.embedding),
        "range_unitary": dense(cfd.range_unitary),
        "complement_basis": dense(cfd.complement_basis),
        "row_contraction": dense(cfd.row_contraction),
        "row_defect": dense(cfd.row_defect),
        "b_block": dense(cfd.b_block),
        "d_block": dense(cfd.d_block.matrix),
        "taylor": {
            ",".join(map(str, gamma)): dense(coeff) for gamma, coeff in sorted(cfd.taylor.items())
        },
    }


# ---------------------------------------------------------------------------
# evaluation and pointwise identities


def theta_taylor_at(cfd: CharFnData, points) -> np.ndarray:
    """sum_gamma theta_gamma point^gamma at a (d,) point or a (P, d) stack: (r, dom) or (P, r, dom).

    Only the nonzero entries of the Taylor stack are read
    (``TaylorCoefficients.entries``): each entry of the result is the sum
    of monomial x coefficient over its nonzero coefficients, labels in
    ascending order, from zero: one ordered ``scatter_add`` in parts of r x
    dom entries, so no temporary outgrows the result. Every point runs the
    same sums, so a single point and a stack agree bit for bit.
    """
    pts, single = point_stack(points)
    taylor = cfd.taylor
    sp = taylor.scalars.at(pts)
    monomials = sp.monomial(taylor.space.monomials(pts)).T
    r, dom = taylor.space.block_dim, taylor.dom
    labels, slots, values = taylor.entries.rows, taylor.entries.cols, taylor.entries.values
    out = sp.zeros((r * dom, len(pts)), complex)
    for at in (slice(k, k + r * dom) for k in range(0, len(slots), r * dom)):
        scatter_add(out, slots[at], monomials[labels[at]] * sp.array(values[at])[:, None])
    out = np.ascontiguousarray(out.T).reshape(len(pts), r, dom)  # C order: a strided view's products round otherwise
    return out[0] if single else out


def _scaled_blocks(space: BlockSpace, series, points: np.ndarray, blocks: np.ndarray | Entries, sp: Scalars) -> np.ndarray:
    """sum_alpha sqrt(c_alpha) point^alpha B_alpha per point, with B_alpha the rows of ``blocks`` at label alpha.

    Real entries of ``blocks``, a dense array or entries, that reach each
    output once at most give it as its one product (zeros may take other
    signs; the gap reads only |.|); otherwise the sum is one complex product
    with the dense array, or with the entries' matrix, formed here.
    """
    roots = sp.roots(space.lift(series, sp))
    weights = roots * sp.monomial(space.monomials(points))
    r, dom, entries = space.block_dim, blocks.shape[1], Entries.of(blocks)
    labels, fibers = np.divmod(entries.rows, r)
    places = Entries((r * dom, len(space.labels)), fibers * dom + entries.cols, labels, sp.array(entries.values))
    out = single_term_product(places, weights.T)
    if out is not None:
        return np.ascontiguousarray(out.T).reshape(len(points), r, dom)  # C order, as the product's, for later products
    stack = sp.array(formed(blocks)).reshape(len(space.labels), -1)
    return (weights[:, None, :] @ stack).reshape(len(points), r, dom)


def evaluation_gap(cfd: CharFnData, points) -> tuple[np.ndarray, float]:
    """(Taylor sum of theta at a point or a stack, max entrywise gap to the direct formula over all of them).

    The direct formula is the operator series times the scalar row Z.
    """
    t = cfd.ops
    pts, single = point_stack(points)
    sp = t.scalars.at(pts)
    direct = _scaled_blocks(cfd.g_support, cfd.factorization.positive_part, pts, cfd.d_block, sp)
    # Defect k_z(T)^* Z(z) B
    kz_adj = np.conjugate(operator_series(t, cfd.kernel, pts)).swapaxes(-1, -2)
    zb = _scaled_blocks(cfd.b_support, reciprocal_complement(cfd.pick_factor), pts, cfd.b_block, sp)
    qd_adj = sp.array(cfd.defect.ran_defect_basis.conj().T)
    delta = sp.array(cfd.defect.defect)
    direct = direct + qd_adj @ delta @ kz_adj @ zb
    taylor_sum = theta_taylor_at(cfd, pts)
    gap = max_abs(np.asarray(direct) - np.asarray(taylor_sum))
    return (taylor_sum[0] if single else taylor_sum), gap


def pointwise_identity_residual(cfd: CharFnData, pairs: Sequence) -> float:
    """max over (z, w) of || s(z,w) theta(z) theta(w)* - k(z,w) I + Q* Defect k_z(T)* k_w(T) Defect Q ||."""
    if not len(pairs):
        return 0.0
    t, m = cfd.ops, len(pairs)
    # the z's, then the w's, as one stack of rows
    both = point_stack([p for side in zip(*pairs) for p in side])[0]
    zs, ws = both[:m], both[m:]
    q = to_float_array(cfd.defect.ran_defect_basis)
    delta = to_float_array(cfd.defect.defect)
    theta = np.asarray(theta_taylor_at(cfd, both), dtype=complex)
    tz, tw = theta[:m], theta[m:]
    s_val = np.asarray(cfd.pick_factor.evaluate(zs, ws, truncated=True).value, dtype=complex)
    k_val = np.asarray(cfd.kernel.evaluate(zs, ws, truncated=True).value, dtype=complex)
    series = operator_series(t, cfd.kernel, both)
    kz_adj, kw = series[:m].conj().swapaxes(-1, -2), series[m:]
    mid = q.conj().T @ delta @ kz_adj @ kw @ delta @ q
    eye = np.eye(cfd.fiber_dim)
    gap = s_val[:, None, None] * (tz @ tw.conj().swapaxes(-1, -2)) - k_val[:, None, None] * eye + mid
    return spectral_norm(gap)


def inverse_identity_residual(cfd: CharFnData, points: Sequence) -> float:
    """max over z of || g_z(T)^* - k_z(T)^* (I - Z(z) R^*) ||."""
    if not len(points):
        return 0.0
    t = cfd.ops
    space = cfd.b_support
    b = space.lift(reciprocal_complement(cfd.pick_factor))
    g_adj = operator_series(t, cfd.factorization.positive_part, points).conj().swapaxes(-1, -2)
    k_adj = operator_series(t, cfd.kernel, points).conj().swapaxes(-1, -2)
    coeffs = b * FLOAT.monomial(space.monomials(points))
    labels, powers = t.powers(int(space.degrees.max(initial=0)))
    wanted = labels.positions(space.exponents.reshape(-1, t.num_vars))
    adjoints = to_float_array(adjoint(powers[wanted]))
    # Z(z) R^* term by term in label order, as a scalar sum would add them
    zr = 0
    for c, p in zip(coeffs.T, adjoints):
        zr = zr + c[:, None, None] * p
    return spectral_norm(g_adj - k_adj @ (np.eye(t.size) - zr))


def row_symbol_margin(cfd: CharFnData, points: Sequence):
    """(min of 1 - sum b_alpha |z^alpha|^2, max mismatch against 1/s(z,z)) over points.

    The quantity is the squared-norm defect of the scalar row Z(z); strict
    positivity witnesses that Z is a strict contraction. Moduli are taken
    with ``np.hypot``, which rounds like the scalar ``abs`` (``np.abs`` on
    complex arrays does not).
    """
    if not len(points):
        return np.inf, 0.0
    space = cfd.b_support
    b = space.lift(reciprocal_complement(cfd.pick_factor))
    monomials = FLOAT.monomial(space.monomials(points))
    squares = b[:, None] * np.hypot(monomials.real, monomials.imag).T ** 2  # summed in label order, from 0
    value = 1.0 - scatter_add(np.zeros((1, len(monomials))), np.zeros(len(b), dtype=int), squares)[0]
    s_val = np.asarray(cfd.pick_factor.evaluate(points, points, truncated=True).value, dtype=complex)
    mismatch = np.abs(value - 1.0 / np.hypot(s_val.real, s_val.imag))
    return value.min(), mismatch.max()


# ---------------------------------------------------------------------------
# the induced multiplier


@dataclass(eq=False)
class MultiplierMatrix:
    """M_theta from the source window into the dilation's ``window``, held as an index plan and its Gram.

    Source coordinates are grouped as (source label) x (domain coordinate),
    target coordinates as (target label) x (Ran Defect coordinate). The
    source window holds the labels of degree <= ``source_degree``, the
    window's degree less theta's top degree, so every image beta + gamma of
    a source label lies in the window. Entry k of the plan puts ``weights[k]
    * theta_gamma``, gamma the Taylor label ``terms[k]``, at target block
    ``targets[k]`` of source block ``sources[k]``; the weight is
    sqrt(a_beta^{(s)} / a_{beta+gamma}^{(k)}). The plan runs source by
    source, over every Taylor label. ``gram`` is M_theta M_theta^* on the
    window (``build_multiplier``), in the form ``_linalg.ordered_sum``
    chooses: slot entries (``Entries``, one slot per position some source
    reaches) or the dense window x window array, with the same bits on
    every position. The dense ``matrix`` of M_theta is scattered through the
    same plan only when it is read.
    """

    taylor: TaylorCoefficients
    source: BlockSpace
    window: MonomialWindow
    sources: np.ndarray
    terms: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    gram: np.ndarray | Entries
    source_degree: int

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense window x source matrix of M_theta."""
        coeffs = self.taylor.coefficients
        _, r, dom = coeffs.shape
        out = self.window.scalars.zeros((self.window.dim, self.source.dim), coeffs.dtype)
        blocks = out.reshape(len(self.window.labels), r, len(self.source.labels), dom)
        blocks[self.targets, :, self.sources, :] = self.weights[:, None, None] * coeffs[self.terms]
        return out


def _stack_products(taylor: TaylorCoefficients) -> Entries:
    """The nonzero entries of Theta Theta^*, one BLAS product for its bits, on the dense stack formed here."""
    theta = taylor.coefficients.reshape(-1, taylor.dom)
    return Entries.of(theta @ theta.conj().T)


def build_multiplier(cfd: CharFnData, dil: DilationData) -> MultiplierMatrix:
    """The plan of M_theta from the Taylor coefficients into ``dil.window``, and its Gram, in their arithmetic.

    ``dil`` is the dilation of ``cfd.defect``, so V and M_theta share one
    window. The source window takes the labels of degree <= the window's
    degree less theta's top degree, so no image leaves the window; a window
    below theta's top degree is a ``ValueError``. A source monomial block at
    beta lands at target blocks beta + gamma with weight
    sqrt(a_beta^{(s)} / a_{beta+gamma}^{(k)}) theta_gamma. The Gram is
    sum_beta W_beta P_beta (Theta Theta^*) P_beta^* W_beta, with P_beta moving
    Taylor label gamma to target block beta + gamma and W_beta the weights:
    one product of the Taylor stack with itself, whose nonzero entries each
    source label adds at its own targets by one ordered ``scatter_add``, in
    source order, so a source costs the entries of that product, not a dense
    block. The sum is ``_linalg.ordered_sum``, one part per source, which
    chooses slot entries or the dense window x window array. Either way the
    values are formed one source at a time, after the dense product is gone.
    """
    taylor, pick, kernel, window = cfd.taylor, cfd.pick_factor, cfd.kernel, dil.window
    n_terms, r, scalars = len(taylor), taylor.space.block_dim, taylor.scalars
    if dil.defect is not cfd.defect or window.block_dim != r:
        raise ValueError("the dilation is not built from this characteristic function's defect data")
    source_degree = window.max_degree - taylor.max_degree
    if source_degree < 0:
        raise ValueError(
            f"the dilation window's degree {window.max_degree} is below theta's top degree {taylor.max_degree}"
        )
    source = BlockSpace(graded_space(kernel.dim, source_degree), taylor.dom)
    n_sources = len(source.labels)

    # every (source label, Taylor label) pair, source by source; each beta + gamma lies in the window
    gammas = taylor.space.exponents.reshape(n_terms, kernel.dim)
    sources, terms = np.divmod(np.arange(n_sources * n_terms), n_terms)
    targets = window.positions(source.exponents[sources] + gammas[terms])
    weights = scalars.roots(source.lift(pick, scalars)[sources] / window.coefficients[targets])

    # each source adds every product of Theta Theta^*, as p * (w_a * w_b), at its places of the Taylor rows:
    # distinct in one source, so each Gram position gets its terms in source order, with the per-source blocks' bits
    products = _stack_products(taylor)
    rows, cols, values = products.rows, products.cols, products.values
    # per source, the Gram row of each row (label, fiber) of the Taylor stack, and its weight
    place = (targets[:, None] * r + np.arange(r)).reshape(n_sources, -1)
    scale = np.repeat(weights, r).reshape(n_sources, -1)

    def positions_of(s):
        return place[s, rows] * window.dim + place[s, cols]

    def products_of(s):
        return values * (scale[s, rows] * scale[s, cols])

    gram = ordered_sum((window.dim, window.dim), values.dtype, [len(values)] * n_sources, positions_of, products_of)
    return MultiplierMatrix(
        taylor=taylor,
        source=source,
        window=window,
        sources=sources,
        terms=terms,
        targets=targets,
        weights=weights,
        gram=gram,
        source_degree=source_degree,
    )


@dataclass(frozen=True)
class FactorizationResidual:
    """|| V V^* + M_theta M_theta^* - I || on the exact degree range, and || M_theta ||.

    ``restricted`` is measured on the labels of degree <= ``restricted_degree``:
    the multiplier's source degree, capped by theta's support and constant
    caps. There the finite windows represent the infinite objects; beyond it
    the windowed identity can fail for truncation reasons alone.
    ``multiplier_norm`` is the norm of the windowed multiplier, read as
    sqrt(lambda_max(M_theta M_theta^*)) from the Gram.
    """

    restricted: float
    restricted_degree: int
    restricted_exact: bool
    multiplier_norm: float


def factorization_residual(
    cfd: CharFnData, dil: DilationData, mult: MultiplierMatrix
) -> FactorizationResidual:
    """V V^* + M_theta M_theta^* - I on the exact degree range, M_theta M_theta^* read from ``mult.gram``.

    ``mult`` must be built on ``dil``'s window. No dense M_theta is formed.
    The restricted block is sliced from a dense Gram or read from slot
    entries at its index mesh (``Entries.at``). ||M_theta|| is the root of
    ``spectral_norm`` of the Gram, which reads slot entries block by block.
    """
    window = dil.window
    if mult.window is not window:
        raise ValueError("dilation and multiplier windows do not match")
    restricted_degree = min(mult.source_degree, cfd.support_cap, cfd.constant_cap)
    idx = np.flatnonzero(window.degree_mask(restricted_degree))
    v, mesh = dil.matrix[idx], (idx[:, None], idx[None, :])
    block = mult.gram.at(*mesh) if isinstance(mult.gram, Entries) else mult.gram[mesh]
    sub = minus_identity(v @ v.conj().T + block)
    exact_zero = bool(window.scalars.exact and is_exactly_zero(sub))
    return FactorizationResidual(
        restricted=spectral_norm(sub),
        restricted_degree=restricted_degree,
        restricted_exact=exact_zero,
        multiplier_norm=math.sqrt(spectral_norm(mult.gram)),
    )


# ---------------------------------------------------------------------------
# the isometric subspace of constants (k-inner restriction)


@dataclass(eq=False)
class KInnerData:
    """The maximal constant subspace on which the multiplier is isometric.

    ``basis`` columns span { x : ||M_theta x|| = ||x|| }. On it theta is a
    k-inner function: the induced map is isometric and its range is
    orthogonal to all positive-degree coordinate shifts of itself;
    ``shift_residual`` is the largest tested violation.
    """

    basis: np.ndarray
    gram_eigenvalues: np.ndarray
    shift_residual: float
    gram_excess: float

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def k_inner_subspace(cfd: CharFnData) -> KInnerData:
    """The constants on which M_theta is isometric, and their shift residual.

    ``basis`` spans the eigenvectors of G = sum_gamma theta_gamma^* theta_gamma / k_gamma
    with eigenvalue >= 1 - ISOMETRY_TOL (EmptyKInnerError if there is none),
    from one ``eigh`` per block size of G's connected blocks (``block_eigh``),
    which forms only the kept eigenvectors. G and (G + G*) / 2 are formed from
    the nonzero pairs of the Taylor stack (``sparse_product``), with no
    dense n x n array when ``_linalg.ordered_sum`` takes slot entries.
    ``shift_residual`` is max |basis^* S_alpha basis| over 1 <= |alpha| <= SHIFT_CHECK_DEGREE: the shifts
    S_alpha = sum_gamma theta_gamma^* theta_{gamma+alpha} / k_{gamma+alpha} in basis coordinates,
    read from theta_gamma basis: one product of the dense stack, formed here.
    """
    taylor, space = cfd.taylor, cfd.taylor.space
    r, dom, entries = space.block_dim, taylor.dom, taylor.entries
    inv_k = 1.0 / space.lift(cfd.kernel)
    fibers, cols = np.divmod(entries.cols, dom)
    values = to_float_array(entries.values)
    theta = Entries((len(taylor) * r, dom), entries.rows * r + fibers, cols, values)
    scaled = Entries(theta.shape, theta.rows, theta.cols, values * inv_k[entries.rows])
    gram = sparse_product(theta.adjoint, scaled)
    vals, basis = block_eigh(hermitian_part(gram), 1.0 - ISOMETRY_TOL)
    top = float(vals.max(initial=0.0))
    if not basis.shape[1]:
        raise EmptyKInnerError(
            f"empty k-inner space: largest Gram eigenvalue 1 - {1.0 - top:.3e} is below 1 - {ISOMETRY_TOL:g}"
        )
    proj = to_float_array(taylor.coefficients) @ basis
    worst = 0.0
    for alpha in enumerate_up_to_degree(cfd.kernel.dim, SHIFT_CHECK_DEGREE)[1:]:
        low, high = space.shift(alpha)
        shift = np.tensordot(proj[low].conj(), proj[high] * inv_k[high, None, None], axes=([0, 1], [0, 1]))
        worst = max(worst, max_abs(shift))
    return KInnerData(basis, vals, worst, max(0.0, top - 1.0))


# ---------------------------------------------------------------------------
# comparing two factorizations of the same kernel


@dataclass(eq=False)
class AlignmentData:
    """Alignment of the multipliers of two CNP factorizations of one kernel.

    The Gram matrices of the families s_{i,z} (x) theta_i(z)^* eta must agree
    (both equal the compression of I - V V^*); ``gram_residual`` is their
    largest entrywise gap. By Douglas' lemma equal Grams give the partial
    isometry that maps one sampled family onto the other, so no map is formed.
    ``reference_residual`` is the larger gap of the two Grams to the closed
    form of that compression.
    """

    gram_residual: float
    reference_residual: float


def align_factorizations(
    cfd1: CharFnData,
    cfd2: CharFnData,
    points: Sequence,
    source_degree: int,
) -> AlignmentData:
    """Check that two factorizations of one kernel give the same I - V V^* at sampled points.

    Both ``CharFnData`` must come from the same tuple and kernel, with equal
    defect ranks. At each point z (inside the unit ball) and each coordinate
    e_a of Ran Defect, the family s_z (x) theta(z)^* e_a is formed in the
    window of the factor s up to ``source_degree``, once per factorization.
    A Gram gap above GRAM_MISMATCH_TOL raises ValueError; so do mismatched
    tuples, kernels or ranks, and points outside the ball. Returns the gap
    and the distance of both Grams to the closed form (``AlignmentData``).
    """
    if cfd1.ops is not cfd2.ops:
        if cfd1.ops.size != cfd2.ops.size or any(
            max_abs(to_float_array(a) - to_float_array(b)) > 1e-12
            for a, b in zip(cfd1.ops.mats, cfd2.ops.mats)
        ):
            raise ValueError("mismatched tuples: alignments need the same operator tuple")
    if tuple(cfd1.kernel.coefficients) != tuple(cfd2.kernel.coefficients):
        raise ValueError("mismatched kernels")
    r = cfd1.fiber_dim
    if cfd2.fiber_dim != r:
        raise ValueError("defect ranks differ")
    pts = point_stack(points)[0]
    if len(pts) and norms_sq(pts).max() >= 1:
        raise ValueError("sample point on or outside the unit sphere")

    def family(cfd: CharFnData) -> np.ndarray:
        # columns k_z (x) theta(z)^* e_a, point by point and a = 0..r-1 within a point
        window = MonomialWindow(cfd.pick_factor, cfd.domain_dim, source_degree)
        fibers = np.asarray(theta_taylor_at(cfd, pts), dtype=complex).conj().reshape(-1, cfd.domain_dim)
        return window.kernel_vector(np.repeat(pts, r, axis=0), fibers).T

    fam1, fam2 = family(cfd1), family(cfd2)
    gram1 = fam1.conj().T @ fam1
    gram2 = fam2.conj().T @ fam2
    gram_residual = max_abs(gram1 - gram2)
    if gram_residual > GRAM_MISMATCH_TOL:
        raise ValueError(
            f"Gram mismatch {gram_residual:.3e} beyond {GRAM_MISMATCH_TOL}: "
            "the inputs do not factor the same projection"
        )
    # closed form of the compression of I - V V^*:
    # <(I - VV*)(k_w (x) e_a), k_z (x) e_b> = k(z, w) delta_ab
    #     - <k_w(T) Defect Q e_a, k_z(T) Defect Q e_b>
    t, m = cfd1.ops, len(points)
    dq = to_float_array(cfd1.defect.defect) @ to_float_array(cfd1.defect.ran_defect_basis)
    series = operator_series(t, cfd1.kernel, pts).astype(complex) @ dq
    k_val = cfd1.kernel.evaluate(np.repeat(pts, m, axis=0), np.tile(pts, (m, 1)), truncated=True).value
    k_val = np.asarray(k_val, dtype=complex).reshape(m, m)
    blocks = k_val[:, :, None, None] * np.eye(r) - series.conj().swapaxes(-1, -2)[:, None] @ series[None, :]
    gram_ref = blocks.transpose(0, 2, 1, 3).reshape(m * r, m * r)
    reference = max(max_abs(gram1 - gram_ref), max_abs(gram2 - gram_ref))
    return AlignmentData(gram_residual, reference)


# ---------------------------------------------------------------------------
# functional model and coincidence


def functional_model(
    cfd: CharFnData, dil: DilationData, partition: FactorizationResidual
) -> tuple[OperatorTuple, float]:
    """The compression of the coordinate multipliers to Ran V, with verification.

    Since V V^* + M_theta M_theta^* = I, Ran V is the orthogonal complement
    of Ran M_theta, and V itself is an orthonormal basis of it; in
    V-coordinates the compressed tuple must reproduce T. ``partition`` is
    ``factorization_residual(cfd, dil, mult)``; a restricted residual above
    PARTITION_TOL raises ValueError. Returns the model tuple and the
    largest ||compressed T_i - T_i||; the intertwining of V is
    ``dilation.intertwining_residuals``.
    """
    if partition.restricted > PARTITION_TOL:
        raise ValueError(
            f"factorization residual {partition.restricted:.3e} exceeds {PARTITION_TOL}; "
            "the model space is not trustworthy"
        )
    v = to_float_array(dil.matrix)
    t = cfd.ops
    mats = tuple(dil.window.lower(i, v).conj().T @ v for i in range(t.num_vars))
    equality = max(spectral_norm(m - to_float_array(ti)) for m, ti in zip(mats, t.mats))
    return OperatorTuple(mats, None, t.nilpotency_bound), equality


def coincidence_residual(cfd_a: CharFnData, cfd_b: CharFnData) -> tuple[float, float]:
    """(lower, upper) bounds on the mismatch of the two Taylor families under constant unitaries.

    The families coincide when unitaries U2 (on Ran Defect coordinates) and
    U1 (on the domain) give theta'_gamma = U2 theta_gamma U1 for every gamma;
    both bounds are relative Frobenius mismatches ((inf, inf) for
    incompatible shapes). A match keeps each coefficient's singular values,
    so by von Neumann's trace inequality no U2, U1 beat the lower bound, the
    root of sum_gamma ||sigma(A_gamma) - sigma(B_gamma)||^2. The upper is the
    best that alternating polar updates reach from the identity and a polar
    guess, COINCIDENCE_ITERATIONS each, stopping within 1e-13 of the lower
    bound. A small upper bound certifies coincidence, a large lower bound
    certifies distinct functions, and a pair between certifies neither.
    """
    if cfd_a.fiber_dim != cfd_b.fiber_dim or cfd_a.domain_dim != cfd_b.domain_dim:
        return float("inf"), float("inf")
    if tuple(cfd_a.kernel.coefficients) != tuple(cfd_b.kernel.coefficients):
        raise ValueError("coincidence comparison requires the same kernel")
    space = BlockSpace(sorted(set(cfd_a.taylor) | set(cfd_b.taylor), key=lambda g: (degree(g), g)), 1)
    r, dom = cfd_a.fiber_dim, cfd_a.domain_dim

    def stack(cfd):
        # theta_gamma / sqrt(k_gamma) over the shared labels, zero off this one's support
        coeffs = to_float_array(cfd.taylor.coefficients)
        out = np.zeros((len(space.labels), r, dom), dtype=coeffs.dtype)
        out[[space.index[g] for g in cfd.taylor]] = coeffs
        return np.sqrt(1.0 / space.lift(cfd.kernel))[:, None, None] * out

    stack_a, stack_b = stack(cfd_a), stack(cfd_b)
    scale = max(np.sqrt(sum(np.linalg.norm(m) ** 2 for m in stack_a)), 1e-30)

    def label_sum(products):
        # sum over the labels in order, from 0, as the scalar sum adds them
        return scatter_add(np.zeros_like(products[:1]), np.zeros(len(products), dtype=int), products)[0]

    def mismatch(gaps):
        total = 0.0
        for gap in gaps:
            total += np.linalg.norm(gap) ** 2
        return float(np.sqrt(total) / scale)

    lower = mismatch(np.linalg.svd(stack_a, compute_uv=False) - np.linalg.svd(stack_b, compute_uv=False))
    candidates = [np.eye(r)]
    guess = label_sum(stack_b @ stack_a.conj().swapaxes(-1, -2))
    if np.linalg.norm(guess) > 1e-12:
        candidates.append(polar_orthogonal(guess))
    best = float("inf")
    for u2 in candidates:
        u1 = np.eye(dom)
        for _ in range(COINCIDENCE_ITERATIONS):
            u1 = polar_orthogonal(label_sum((u2 @ stack_a).conj().swapaxes(-1, -2) @ stack_b))
            u2 = polar_orthogonal(label_sum(stack_b @ (stack_a @ u1).conj().swapaxes(-1, -2)))
            best = min(best, mismatch(u2 @ stack_a @ u1 - stack_b))
            if best - lower < 1e-13:
                return lower, best
    return lower, best
