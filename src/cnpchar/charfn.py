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
factorization residual is therefore reported both restricted to the exact
degree range and unrestricted.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import (
    EXACT,
    FLOAT,
    ExactnessError,
    Scalars,
    is_exact_array,
    is_exactly_zero,
    max_abs,
    orth_complement_of_range,
    point_stack,
    polar_orthogonal,
    psd_root,
    spectral_norm,
    to_float_array,
)
from .dilation import DilationData, MonomialWindow
from .multiindex import (
    BlockSpace,
    add,
    degree,
    enumerate_up_to_degree,
)
from .operators import PSD_TOL, RANK_CUTOFF, DefectData, OperatorTuple, operator_series
from .series import KernelFactorization, KernelSeries, reciprocal_complement

Point = Sequence

# largest ||u Gamma - embedding|| for which the range identification u is well defined
IDENTITY_TOL = 1e-8


class CharFnBuildError(RuntimeError):
    """The block construction failed one of its defining identities."""


class EmptyKInnerError(RuntimeError):
    """No unit eigenvalue in the multiplier Gram: the isometric subspace is missing."""


@dataclass(frozen=True, eq=False)
class TaylorCoefficients(Mapping):
    """theta's Taylor coefficients, as a mapping from labels gamma to r x dom matrices theta_gamma.

    They are held as one read-only (L, r, dom) stack ``coefficients`` over
    the labels of ``space`` (block size r), in the arithmetic they were built
    in; a label whose coefficient is exactly zero is absent.
    """

    space: BlockSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients.setflags(write=False)

    def __getitem__(self, label) -> np.ndarray:
        return self.coefficients[self.space.index[label]]

    def __iter__(self):
        return iter(self.space.labels)

    def __len__(self) -> int:
        return len(self.space.labels)

    @property
    def max_degree(self) -> int:
        return int(self.space.degrees.max(initial=0))

    @property
    def scalars(self) -> Scalars:
        return EXACT if is_exact_array(self.coefficients) else FLOAT


@dataclass(eq=False)
class CharFnData:
    """All blocks of the characteristic-function construction for one tuple.

    ``defect`` is the DefectData the blocks were built from: the tuple, its
    defects and the basis of Ran Defect that theta's rows are written in.
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
    complement_basis: np.ndarray
    row_contraction: np.ndarray
    row_defect: np.ndarray
    row_defect_basis: np.ndarray
    b_block: np.ndarray
    d_block: np.ndarray
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
        return self.row_defect_basis.shape[1] + self.complement_basis.shape[1]

    @property
    def max_taylor_degree(self) -> int:
        return self.taylor.max_degree


def build_charfn(
    defect: DefectData,
    factorization: KernelFactorization,
    support_cap: Optional[int] = None,
    constant_cap: Optional[int] = None,
) -> CharFnData:
    """Run the whole block construction and return its data.

    ``defect`` is ``defect_data(t, fac.kernel, fac.pick_factor)``, the same
    object ``build_dilation`` takes, so theta and the dilation share one
    basis of Ran Defect; one for another kernel or pick factor raises
    ValueError. ``support_cap`` bounds the degrees of the row-contraction
    labels (nonzero b coefficients of the CNP factor), ``constant_cap`` the
    labels of E (nonzero g coefficients); both default to nilpotency degree
    + 3. Raises NotPureError for impure tuples, CharFnBuildError when the row
    defect fails positivity ("R is not a contraction") or when the range
    identification u is ill-defined.
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
    if support_cap is None or constant_cap is None:
        if bound is None:
            raise ValueError("caps are required for tuples without a nilpotency bound")
        support_cap = support_cap if support_cap is not None else bound + 3
        constant_cap = constant_cap if constant_cap is not None else bound + 3
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

    dim = t.num_vars
    b_labels = [
        a
        for a in enumerate_up_to_degree(dim, support_cap)
        if degree(a) >= 1 and b_s.coeff_1d(degree(a)) != 0
    ]
    g_labels = [a for a in enumerate_up_to_degree(dim, constant_cap) if g.coeff_1d(degree(a)) != 0]
    row_space = BlockSpace(b_labels, n)
    e_space = BlockSpace(g_labels, r)
    root_g = [sc.sqrt(c) for c in e_space.lift(g, sc)]
    root_b = [sc.sqrt(c) for c in row_space.lift(b_s, sc)]

    # Q* Defect (T^beta)^* for every beta read below; zero above the nilpotency degree
    beta_cap = bound if bound is not None else max(support_cap, constant_cap)
    betas = BlockSpace(enumerate_up_to_degree(dim, min(beta_cap, kernel.truncation)), r)
    defect_rows = {beta: q_delta.conj().T @ delta @ t.power_adjoint(beta) for beta in betas.labels}

    # g-weighted embedding of H into E
    embedding = sc.zeros((e_space.dim, n), t.dtype)
    for lab, scale in zip(g_labels, root_g):
        if lab in defect_rows:
            embedding[e_space.block(lab)] = scale * defect_rows[lab]
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
    complement_basis = orth_complement_of_range(embedding, RANK_CUTOFF)

    # row contraction from the weighted powers, and its defect
    row = sc.zeros((n, row_space.dim), t.dtype)
    for lab, scale in zip(b_labels, root_b):
        row[:, row_space.block(lab)] = scale * t.power(lab)
    row_gram = row.conj().T @ row
    row_root = psd_root(sc.eye(row_space.dim) - row_gram, RANK_CUTOFF)
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
    q_h = complement_basis.shape[1]
    b_block = np.hstack([row_defect @ row_defect_basis, sc.zeros((row_space.dim, q_h))])
    d_block = np.hstack([-(range_unitary @ (row @ row_defect_basis)), -complement_basis])

    # block unitarity of U = [[R*, B], [P, D]]
    eye_row = sc.eye(row_space.dim)
    eye_e = sc.eye(e_space.dim)
    rel1 = row_gram + b_block @ b_block.conj().T - eye_row
    rel2 = embedding @ row + d_block @ b_block.conj().T
    rel3 = embedding @ embedding.conj().T + d_block @ d_block.conj().T - eye_e
    diagnostics["block_relation_row"] = spectral_norm(rel1)
    diagnostics["block_relation_cross"] = spectral_norm(rel2)
    diagnostics["block_relation_e"] = spectral_norm(rel3)
    u_full = np.vstack([np.hstack([row.conj().T, b_block]), np.hstack([embedding, d_block])])
    eye_full = sc.eye(n + p + q_h)
    eye_target = sc.eye(row_space.dim + e_space.dim)
    diagnostics["unitary_gram"] = spectral_norm(u_full.conj().T @ u_full - eye_full)
    diagnostics["unitary_cogram"] = spectral_norm(u_full @ u_full.conj().T - eye_target)

    # theta_gamma = sqrt(g_gamma) D_gamma
    #     + sum_{alpha+beta=gamma} a_beta sqrt(b_alpha) Q* Defect (T^beta)^* B_alpha,
    # summed in place over the labels in order of first appearance. Float
    # entries start at -0.0, the exact additive identity, so a first term
    # enters unchanged, sign of zero included.
    a = betas.lift(kernel, sc)
    labels = list(dict.fromkeys(g_labels + [add(al, be) for al in b_labels for be in betas.labels]))
    index = {lab: i for i, lab in enumerate(labels)}
    stack = -sc.zeros((len(labels), r, p + q_h), t.dtype)
    for lab, scale in zip(g_labels, root_g):
        stack[index[lab]] += scale * d_block[e_space.block(lab)]
    for alpha, scale in zip(b_labels, root_b):
        block = b_block[row_space.block(alpha)]
        for beta, a_beta in zip(betas.labels, a):
            stack[index[add(alpha, beta)]] += (a_beta * scale) * (defect_rows[beta] @ block)
    keep = [i for i, m in enumerate(stack) if not is_exactly_zero(m)]
    taylor = TaylorCoefficients(BlockSpace([labels[i] for i in keep], r), stack[keep])

    return CharFnData(
        factorization=factorization,
        defect=defect,
        b_support=row_space,
        g_support=e_space,
        embedding=embedding,
        range_unitary=range_unitary,
        complement_basis=complement_basis,
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


def charfn_blocks_dict(cfd: CharFnData) -> dict:
    """All block matrices and Taylor coefficients as dense row-major float arrays.

    Every matrix entry carries a shape header so consumers can reassemble the
    blocks without knowing the window layouts.
    """

    def dense(m) -> dict:
        arr = to_float_array(np.asarray(m))
        return {"shape": list(arr.shape), "entries": np.real_if_close(arr).astype(float).tolist()}

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
        "d_block": dense(cfd.d_block),
        "taylor": {
            ",".join(map(str, gamma)): dense(coeff) for gamma, coeff in sorted(cfd.taylor.items())
        },
    }


# ---------------------------------------------------------------------------
# evaluation and pointwise identities


def theta_taylor_at(cfd: CharFnData, points) -> np.ndarray:
    """sum_gamma theta_gamma point^gamma at a (d,) point or a (P, d) stack: (r, dom) or (P, r, dom).

    One broadcast matmul (P, 1, L) @ (L, r dom), which rounds like the
    vector-matrix product of a single point; a stacked gemm would not.
    """
    pts, single = point_stack(points)
    taylor = cfd.taylor
    sp = taylor.scalars.at(pts)
    coeffs = sp.array(taylor.coefficients).reshape(len(taylor), -1)
    monomials = sp.monomial(taylor.space.monomials(pts))
    out = (monomials[:, None, :] @ coeffs).reshape(len(pts), *taylor.coefficients.shape[1:])
    return out[0] if single else out


def _scaled_blocks(space: BlockSpace, series, points: list, blocks: np.ndarray, sp: Scalars) -> np.ndarray:
    """sum_alpha sqrt(c_alpha) point^alpha B_alpha per point, with B_alpha the rows of ``blocks`` at label alpha."""
    roots = np.array([sp.sqrt(c) for c in space.lift(sp.series(series), sp)])
    weights = roots * sp.monomial(space.monomials(points))
    stack = sp.array(blocks).reshape(len(space.labels), -1)
    return (weights[:, None, :] @ stack).reshape(len(points), space.block_dim, blocks.shape[1])


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
    zs, ws = [z for z, _ in pairs], [w for _, w in pairs]
    if not zs:
        return 0.0
    t, m = cfd.ops, len(zs)
    q = to_float_array(cfd.defect.ran_defect_basis)
    delta = to_float_array(cfd.defect.defect)
    theta = np.asarray(theta_taylor_at(cfd, zs + ws), dtype=complex)
    tz, tw = theta[:m], theta[m:]
    s_val = np.asarray(cfd.pick_factor.evaluate(zs, ws, truncated=True).value, dtype=complex)
    k_val = np.asarray(cfd.kernel.evaluate(zs, ws, truncated=True).value, dtype=complex)
    series = operator_series(t, cfd.kernel, zs + ws)
    kz_adj, kw = series[:m].conj().swapaxes(-1, -2), series[m:]
    mid = q.conj().T @ delta @ kz_adj @ kw @ delta @ q
    eye = np.eye(cfd.fiber_dim)
    gap = s_val[:, None, None] * (tz @ tw.conj().swapaxes(-1, -2)) - k_val[:, None, None] * eye + mid
    return spectral_norm(gap)


def inverse_identity_residual(cfd: CharFnData, points: Sequence[Point]) -> float:
    """max over z of || g_z(T)^* - k_z(T)^* (I - Z(z) R^*) ||."""
    if not len(points):
        return 0.0
    t = cfd.ops
    space = cfd.b_support
    b = space.lift(reciprocal_complement(cfd.pick_factor).floats)
    g_adj = operator_series(t, cfd.factorization.positive_part, points).conj().swapaxes(-1, -2)
    k_adj = operator_series(t, cfd.kernel, points).conj().swapaxes(-1, -2)
    coeffs = b * FLOAT.monomial(space.monomials(points))
    # Z(z) R^* term by term in label order, as a scalar sum would add them
    zr = 0
    for alpha, c in zip(space.labels, coeffs.T):
        zr = zr + c[:, None, None] * to_float_array(t.power_adjoint(alpha))
    return spectral_norm(g_adj - k_adj @ (np.eye(t.size) - zr))


def row_symbol_margin(cfd: CharFnData, points: Sequence[Point]):
    """(min of 1 - sum b_alpha |z^alpha|^2, max mismatch against 1/s(z,z)) over points.

    The quantity is the squared-norm defect of the scalar row Z(z); strict
    positivity witnesses that Z is a strict contraction. Moduli are taken
    with ``np.hypot``, which rounds like the scalar ``abs`` (``np.abs`` on
    complex arrays does not).
    """
    if not len(points):
        return np.inf, 0.0
    space = cfd.b_support
    b = space.lift(reciprocal_complement(cfd.pick_factor).floats)
    monomials = FLOAT.monomial(space.monomials(points))
    total = 0
    for c, m in zip(b, monomials.T):
        total = total + c * np.hypot(m.real, m.imag) ** 2
    value = 1.0 - total
    s_val = np.asarray(cfd.pick_factor.evaluate(points, points, truncated=True).value, dtype=complex)
    mismatch = np.abs(value - 1.0 / np.hypot(s_val.real, s_val.imag))
    return value.min(), mismatch.max()


# ---------------------------------------------------------------------------
# the induced multiplier


@dataclass(eq=False)
class MultiplierMatrix:
    """Dense matrix of M_theta between truncated monomial windows.

    Source coordinates are grouped as (source label) x (domain coordinate),
    target coordinates as (target label) x (Ran Defect coordinate). The
    ``exact_window`` flag is set when no Taylor mass was discarded, which the
    caller guarantees by target_degree >= source_degree + max Taylor degree.
    ``discarded_mass`` bounds the squared column mass dropped by truncation.
    """

    matrix: np.ndarray
    window: MonomialWindow
    source_degree: int
    target_degree: int
    max_taylor_degree: int
    exact_window: bool
    discarded_mass: float


def build_multiplier(cfd: CharFnData, source_degree: int, target_degree: int) -> MultiplierMatrix:
    """Assemble M_theta from the Taylor coefficients, in their arithmetic.

    A source monomial block at beta lands at target blocks beta + gamma with
    weight sqrt(a_beta^{(s)} / a_{beta+gamma}^{(k)}) theta_gamma; degrees
    beyond the target window are discarded and their mass recorded.
    """
    taylor, pick, kernel = cfd.taylor, cfd.pick_factor, cfd.kernel
    _, r, dom = taylor.coefficients.shape
    scalars, max_deg = taylor.scalars, taylor.max_degree
    if kernel.truncation < source_degree + max_deg or pick.truncation < source_degree:
        raise ValueError("kernel truncation too small for the requested windows")
    source = BlockSpace(enumerate_up_to_degree(kernel.dim, source_degree), dom)
    window = MonomialWindow(kernel, r, target_degree, scalars)
    matrix = scalars.zeros((window.dim, source.dim), taylor.coefficients.dtype)
    discarded = 0.0
    a_s, a_k = source.lift(pick, scalars), window.coefficients
    terms = list(zip(taylor.space.labels, taylor.coefficients))
    for i, beta in enumerate(source.labels):
        cols = source.block(beta)
        for gamma, coeff in terms:
            target = add(beta, gamma)
            j = window.index.get(target)
            if j is None:
                ratio = pick.coeff(beta) / kernel.coeff(target)
                discarded = max(discarded, float(ratio) * float(max_abs(np.asarray(coeff))) ** 2)
                continue
            rows = window.block(target)
            matrix[rows, cols] = matrix[rows, cols] + scalars.sqrt(a_s[i] / a_k[j]) * coeff
    exact_window = target_degree >= source_degree + max_deg
    return MultiplierMatrix(
        matrix=matrix,
        window=window,
        source_degree=source_degree,
        target_degree=target_degree,
        max_taylor_degree=max_deg,
        exact_window=exact_window,
        discarded_mass=discarded,
    )


@dataclass(frozen=True)
class FactorizationResidual:
    """|| V V^* + M_theta M_theta^* - I || on the target window, and || M_theta ||.

    ``restricted`` is measured on the degree range where the finite windows
    represent the infinite objects with no discarded mass; ``unrestricted``
    covers the whole window and is generally nonzero for truncation reasons
    alone. ``multiplier_norm`` is the norm of the windowed multiplier, read
    as sqrt(lambda_max(M_theta M_theta^*)) from the same Gram.
    """

    restricted: float
    unrestricted: float
    restricted_degree: int
    restricted_exact: bool
    multiplier_norm: float


def factorization_residual(
    cfd: CharFnData, dil: DilationData, mult: MultiplierMatrix
) -> FactorizationResidual:
    window = dil.window
    if (
        window.max_degree != mult.target_degree
        or window.block_dim != mult.window.block_dim
        or window.scalars != mult.window.scalars
    ):
        raise ValueError("dilation and multiplier windows do not match")
    v = dil.matrix
    m = mult.matrix
    gram = m @ m.conj().T
    total = v @ v.conj().T + gram - window.scalars.eye(window.dim)
    restricted_degree = min(
        mult.source_degree,
        mult.target_degree - mult.max_taylor_degree,
        cfd.support_cap,
        cfd.constant_cap,
    )
    mask = window.degree_mask(restricted_degree)
    sub = np.asarray(total)[np.ix_(mask, mask)]
    exact_zero = bool(window.scalars.exact and is_exactly_zero(sub))
    return FactorizationResidual(
        restricted=spectral_norm(sub),
        unrestricted=spectral_norm(np.asarray(total)),
        restricted_degree=restricted_degree,
        restricted_exact=exact_zero,
        multiplier_norm=math.sqrt(spectral_norm(gram)),
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


def k_inner_subspace(cfd: CharFnData, check_degree: int = 3, eig_tol: float = 1e-9) -> KInnerData:
    """The constants on which M_theta is isometric, and their shift residual.

    ``basis`` spans the eigenvectors of G = sum_gamma theta_gamma^* theta_gamma / k_gamma
    with eigenvalue >= 1 - eig_tol (EmptyKInnerError if there is none). ``shift_residual``
    is max |basis^* S_alpha basis| over 1 <= |alpha| <= check_degree: the shifts
    S_alpha = sum_gamma theta_gamma^* theta_{gamma+alpha} / k_{gamma+alpha} in basis coordinates.
    """
    space, dom = cfd.taylor.space, cfd.taylor.coefficients.shape[2]
    labels, row = space.labels, space.index
    stack = to_float_array(cfd.taylor.coefficients)
    inv_k = 1.0 / space.lift(cfd.kernel.floats)[:, None, None]
    gram = stack.reshape(-1, dom).conj().T @ (stack * inv_k).reshape(-1, dom)
    vals, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    top = float(vals.max(initial=0.0))
    sel = vals >= 1.0 - eig_tol
    if not sel.any():
        raise EmptyKInnerError(
            f"empty k-inner space: largest Gram eigenvalue 1 - {1.0 - top:.3e} is below 1 - eig_tol ({eig_tol:g})"
        )
    basis = vecs[:, sel]
    proj = stack @ basis
    worst = 0.0
    for alpha in enumerate_up_to_degree(cfd.kernel.dim, check_degree)[1:]:
        pairs = [(i, row[up]) for i, g in enumerate(labels) if (up := add(g, alpha)) in row]
        low, high = np.array(pairs, dtype=int).reshape(-1, 2).T
        shift = np.tensordot(proj[low].conj(), proj[high] * inv_k[high], axes=([0, 1], [0, 1]))
        worst = max(worst, max_abs(shift))
    return KInnerData(basis, vals, worst, max(0.0, top - 1.0))


# ---------------------------------------------------------------------------
# comparing two factorizations of the same kernel


@dataclass(eq=False)
class AlignmentData:
    """Alignment of the multipliers of two CNP factorizations of one kernel.

    The Gram matrices of the families s_{i,z} (x) theta_i(z)^* eta must agree
    (both equal the compression of I - V V^*); ``correspondence`` is the
    partial isometry matching the two sampled families, computed from the
    common Gram factorization.
    """

    gram_residual: float
    correspondence: np.ndarray
    map_residual: float
    idempotency_residual: float
    reference_residual: Optional[float]


def align_factorizations(
    cfd1: CharFnData,
    cfd2: CharFnData,
    points: Sequence[Point],
    source_degree: int = 16,
    dil: Optional[DilationData] = None,
    mismatch_tol: float = 1e-6,
) -> AlignmentData:
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
    for z in points:
        if sum(abs(complex(p)) ** 2 for p in z) >= 1:
            raise ValueError("sample point on or outside the unit sphere")

    def family(cfd: CharFnData) -> np.ndarray:
        # columns k_z (x) theta(z)^* e_a, point by point and a = 0..r-1 within a point
        window = MonomialWindow(cfd.pick_factor, cfd.domain_dim, source_degree)
        fibers = np.asarray(theta_taylor_at(cfd, points), dtype=complex).conj().reshape(-1, cfd.domain_dim)
        return window.kernel_vector([z for z in points for _ in range(r)], fibers).T

    fam1, fam2 = family(cfd1), family(cfd2)
    gram1 = fam1.conj().T @ fam1
    gram2 = fam2.conj().T @ fam2
    gram_residual = max_abs(gram1 - gram2)
    if gram_residual > mismatch_tol:
        raise ValueError(
            f"Gram mismatch {gram_residual:.3e} beyond {mismatch_tol}: "
            "the inputs do not factor the same projection"
        )
    reference = None
    if dil is not None:
        # closed form of the compression of I - V V^*:
        # <(I - VV*)(k_w (x) e_a), k_z (x) e_b> = k(z, w) delta_ab
        #     - <k_w(T) Defect Q e_a, k_z(T) Defect Q e_b>
        t, m = cfd1.ops, len(points)
        dq = to_float_array(cfd1.defect.defect) @ to_float_array(cfd1.defect.ran_defect_basis)
        series = operator_series(t, cfd1.kernel, points).astype(complex) @ dq
        k_val = cfd1.kernel.evaluate(
            [zi for zi in points for _ in range(m)], [zj for _ in range(m) for zj in points], truncated=True
        ).value
        k_val = np.asarray(k_val, dtype=complex).reshape(m, m)
        blocks = k_val[:, :, None, None] * np.eye(r) - series.conj().swapaxes(-1, -2)[:, None] @ series[None, :]
        gram_ref = blocks.transpose(0, 2, 1, 3).reshape(m * r, m * r)
        reference = max(max_abs(gram1 - gram_ref), max_abs(gram2 - gram_ref))
    # common Gram factorization: orthonormalize both families against the
    # shared Gram, then match the orthonormal frames
    gram = (gram1 + gram2) / 2
    vals, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    keep = vals > 1e-8 * max(1.0, float(vals.max(initial=0.0)))
    whiten = vecs[:, keep] / np.sqrt(vals[keep])
    frame1 = fam1 @ whiten
    frame2 = fam2 @ whiten
    correspondence = frame2 @ frame1.conj().T
    map_residual = max_abs(correspondence @ fam1 - fam2)
    p = correspondence.conj().T @ correspondence
    idem = max_abs(p @ p - p)
    return AlignmentData(gram_residual, correspondence, map_residual, idem, reference)


# ---------------------------------------------------------------------------
# functional model and coincidence


@dataclass(frozen=True)
class FunctionalModelReport:
    intertwining_residuals: tuple
    equality_residual: float
    factorization: FactorizationResidual


def functional_model(
    cfd: CharFnData,
    dil: DilationData,
    partition: FactorizationResidual,
    residual_tol: float = 1e-8,
):
    """The compression of the coordinate multipliers to Ran V, with verification.

    Since V V^* + M_theta M_theta^* = I, Ran V is the orthogonal complement
    of Ran M_theta, and V itself is an orthonormal basis of it; in
    V-coordinates the compressed tuple must reproduce T. ``partition`` is
    ``factorization_residual(cfd, dil, mult)``; a restricted residual above
    ``residual_tol`` raises ValueError. Returns the model tuple and a report
    of the intertwining and equality residuals.
    """
    if partition.restricted > residual_tol:
        raise ValueError(
            f"factorization residual {partition.restricted:.3e} exceeds {residual_tol}; "
            "the model space is not trustworthy"
        )
    v = to_float_array(dil.matrix)
    t = cfd.ops
    mats = []
    inter = []
    equality = 0.0
    for i in range(t.num_vars):
        m = to_float_array(dil.window.multiplication_matrix(i))
        compressed = v.conj().T @ m @ v
        mats.append(compressed)
        ti = to_float_array(t.mats[i])
        inter.append(spectral_norm(m.conj().T @ v - v @ ti.conj().T))
        equality = max(equality, spectral_norm(compressed - ti))
    model = OperatorTuple(tuple(mats), None, None, t.nilpotency_bound, cfd.kernel)
    return model, FunctionalModelReport(tuple(inter), equality, partition)


def coincidence_residual(
    cfd_a: CharFnData,
    cfd_b: CharFnData,
    rng: Optional[np.random.Generator] = None,
    starts: int = 8,
    iterations: int = 60,
) -> float:
    """How far the two Taylor families are from a constant-unitary match.

    Coincidence of characteristic functions is operationalized as the
    existence of unitaries U2 (on Ran Defect coordinates) and U1 (on the
    domain) with theta'_gamma = U2 theta_gamma U1 for every gamma. The
    bilinear orthogonal Procrustes problem is solved by alternating polar
    updates from several starts; the returned value is the best relative
    Frobenius mismatch (inf for incompatible shapes).
    """
    if cfd_a.fiber_dim != cfd_b.fiber_dim or cfd_a.domain_dim != cfd_b.domain_dim:
        return float("inf")
    if tuple(cfd_a.kernel.coefficients) != tuple(cfd_b.kernel.coefficients):
        raise ValueError("coincidence comparison requires the same kernel")
    rng = rng if rng is not None else np.random.default_rng(0)
    space = BlockSpace(sorted(set(cfd_a.taylor) | set(cfd_b.taylor), key=lambda g: (degree(g), g)), 1)
    r, dom = cfd_a.fiber_dim, cfd_a.domain_dim

    def stack(cfd):
        # theta_gamma / sqrt(k_gamma) over the shared labels, zero off this one's support
        coeffs = to_float_array(cfd.taylor.coefficients)
        out = np.zeros((len(space.labels), r, dom), dtype=coeffs.dtype)
        out[[space.index[g] for g in cfd.taylor]] = coeffs
        return list(np.sqrt(1.0 / space.lift(cfd.kernel.floats))[:, None, None] * out)

    stack_a, stack_b = stack(cfd_a), stack(cfd_b)
    scale = max(np.sqrt(sum(np.linalg.norm(m) ** 2 for m in stack_a)), 1e-30)

    def residual(u2, u1):
        total = 0.0
        for ma, mb in zip(stack_a, stack_b):
            total += np.linalg.norm(u2 @ ma @ u1 - mb) ** 2
        return float(np.sqrt(total)) / scale

    candidates = [np.eye(r)]
    guess = sum(mb @ ma.conj().T for ma, mb in zip(stack_a, stack_b))
    if np.linalg.norm(guess) > 1e-12:
        candidates.append(polar_orthogonal(guess))
    for _ in range(starts):
        candidates.append(polar_orthogonal(rng.standard_normal((r, r))))
    best = float("inf")
    for u2 in candidates:
        u1 = np.eye(dom)
        for _ in range(iterations):
            m1 = sum((u2 @ ma).conj().T @ mb for ma, mb in zip(stack_a, stack_b))
            u1 = polar_orthogonal(m1)
            m2 = sum(mb @ (ma @ u1).conj().T for ma, mb in zip(stack_a, stack_b))
            u2 = polar_orthogonal(m2)
            current = residual(u2, u1)
            if current < best:
                best = current
            if best < 1e-13:
                return best
    return best
