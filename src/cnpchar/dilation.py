"""The canonical dilation of a pure tuple into its kernel space.

For a pure 1/k-contraction T on H, the map

    V : h  |->  sum_alpha a_alpha z^alpha (x) Defect (T^alpha)^* h

is an isometry from H into H_k (x) Ran(Defect) intertwining the adjoints of
the coordinate multipliers with the T_i. Everything here lives on a finite
monomial window of the target space; for nilpotent tuples the rows of V
vanish beyond the nilpotency degree, so any window at least that deep
represents V with no truncation error at all.

The kernel of V^* carries the associated tuple (the restriction of the
coordinate multipliers), whose 1/l-contractivity decides whether T admits a
characteristic function through the kernel l. The test here examines the
finite window and certifies violations; non-negative outcomes are evidence
bounded by the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import (
    FLOAT,
    ExactnessError,
    Scalars,
    adjoint,
    is_exact_array,
    min_eigenvalue,
    point_stack,
    range_complement,
    spectral_norm,
    to_float_array,
)
from .multiindex import BlockSpace, graded_space, unit
from .operators import (
    PSD_TOL,
    DefectData,
    OperatorTuple,
    conjugated_sum,
    defect_data,
    operator_series,
)
from .series import KernelSeries, reciprocal_complement


class WindowError(ValueError):
    """A monomial window reaches beyond the truncation of its kernel."""


class MonomialWindow(BlockSpace):
    """The truncated space H_k^{<=degree} (x) C^r in the normalized monomial basis.

    A block space with one block of size r = ``block_dim`` per monomial
    label of degree <= ``max_degree``, in graded label order, over the label
    tables of ``graded_space``. ``coefficients`` holds the kernel's lifts
    a_alpha over the labels in the arithmetic ``scalars``, lifted once at
    construction.
    """

    def __init__(
        self, kernel: KernelSeries, fiber_dim: int, max_degree: int, scalars: Scalars = FLOAT
    ):
        if max_degree > kernel.truncation:
            raise WindowError(
                f"window degree {max_degree} exceeds the kernel truncation {kernel.truncation}"
            )
        super().__init__(graded_space(kernel.dim, max_degree), fiber_dim)
        self.kernel = kernel
        self.max_degree = max_degree
        self.scalars = scalars
        self.coefficients = self.lift(kernel, scalars)
        self._root_coefficients = np.sqrt(self.lift(kernel))

    def degree_mask(self, max_degree: int) -> np.ndarray:
        """Boolean coordinate mask selecting blocks of degree <= max_degree."""
        return np.repeat(self.degrees <= max_degree, self.block_dim)

    def lower(self, i: int, x: np.ndarray) -> np.ndarray:
        """(M_{z_i} tensor I_r)^* x on the window, for x of ``dim`` rows, as a gather.

        Block gamma is sqrt(a_gamma / a_{gamma+e_i}) times block gamma + e_i of
        x (zero at the top degree), with the weight in x's arithmetic, so each
        float entry rounds as in a product with the dense shift matrix.
        """
        low, high = self.shift(unit(self.kernel.dim, i))
        weights = self.scalars.roots(self.coefficients[low] / self.coefficients[high])
        if not is_exact_array(x):
            weights = to_float_array(weights)
        blocks = x.reshape(len(self.labels), self.block_dim, -1)
        out = np.zeros_like(blocks)
        out[low] = weights[:, None, None] * blocks[high]
        return out.reshape(x.shape)

    def kernel_vector(self, points: Sequence, fibers: np.ndarray) -> np.ndarray:
        """Coordinates of k_point (x) fiber on the window, for one point and fiber or a stack of each.

        The coefficient of the normalized monomial at alpha is
        sqrt(a_alpha) * conj(point^alpha). A (d,) point with an (r,) fiber
        gives a (dim,) vector, a (P, d) stack with (P, r) fibers a (P, dim) array.
        """
        pts, single = point_stack(points)
        fibers = np.asarray(fibers)
        if fibers.shape != ((self.block_dim,) if single else (len(pts), self.block_dim)):
            raise ValueError("fiber vector has wrong length")
        scaled = self._root_coefficients * np.conjugate(self.monomials(pts))
        out = scaled[:, :, None] * fibers.reshape(len(pts), 1, self.block_dim)
        out = out.reshape(len(pts), self.dim).astype(complex, copy=False)
        return out[0] if single else out


@dataclass(eq=False)
class DilationData:
    """The dilation isometry of a pure tuple, materialized on a monomial window."""

    defect: DefectData
    window: MonomialWindow
    matrix: np.ndarray
    isometry_residual: float

    @property
    def fiber_dim(self) -> int:
        return self.window.block_dim


def build_dilation(defect: DefectData, target_degree: int) -> DilationData:
    """Assemble the dilation isometry on the window of degrees <= target_degree.

    ``defect`` is the DefectData of the tuple for the kernel, and the tuple
    must be pure: the isometry property is exactly the purity identity, so
    ``defect.require_pure()`` rejects an impure tuple up front. The row
    block at alpha is sqrt(a_alpha) * Q^* Defect (T^alpha)^*, with Q the
    orthonormal basis ``defect.ran_defect_basis`` of Ran(Defect), the one
    the characteristic function uses too; rows vanish above the nilpotency
    degree.
    """
    defect.require_pure()
    t, kernel = defect.ops, defect.kernel
    if t.weights is not None:
        raise ExactnessError(
            "dilation needs an orthonormal basis for the tuple's space; "
            "use to_float() or a weightless exact tuple"
        )
    delta = defect.defect
    if delta is None:
        raise ExactnessError("defect square root unavailable; use float mode")
    sc = t.scalars
    q = defect.ran_defect_basis
    window = MonomialWindow(kernel, q.shape[1], target_degree, sc)
    bound = t.nilpotency_bound
    _, powers = t.powers(target_degree if bound is None else min(target_degree, bound))
    live = len(powers)
    v = sc.zeros((window.dim, t.size), t.dtype)
    v[: live * window.block_dim] = (
        sc.roots(window.coefficients[:live])[:, None, None] * (q.conj().T @ delta @ adjoint(powers))
    ).reshape(-1, t.size)
    gram_gap = v.conj().T @ v - t.identity()
    return DilationData(
        defect=defect,
        window=window,
        matrix=v,
        isometry_residual=spectral_norm(gram_gap),
    )


def intertwining_residuals(dil: DilationData) -> list[float]:
    """||V^* (M_i tensor I) - T_i V^*|| per coordinate, on the window."""
    v = dil.matrix
    t = dil.defect.ops
    return [spectral_norm(dil.window.lower(i, v).conj().T - t.mats[i] @ v.conj().T) for i in range(t.num_vars)]


def kernel_vector_gap(dil: DilationData, points: Sequence, fibers: np.ndarray) -> tuple[np.ndarray, float]:
    """(k_point(T) Defect fiber, its largest distance from V^* applied to k_point (x) fiber).

    For a (d,) point with an (r,) fiber the first entry is an (n,) vector;
    for a (P, d) stack with (P, r) fibers it is (P, n), and the distance is
    the largest over the stack.
    """
    pts, single = point_stack(points)
    fibers = np.asarray(fibers).reshape(len(pts), -1)
    vecs = dil.window.kernel_vector(pts, fibers)
    lhs = np.asarray(dil.matrix, dtype=complex).conj().T @ vecs[:, :, None]
    dd = dil.defect
    series = operator_series(dd.ops, dd.kernel, pts)
    delta = to_float_array(dd.defect)
    rhs = series @ delta @ (to_float_array(dd.ran_defect_basis) @ fibers[:, :, None])
    # the 2-norm of each difference alone: norm(axis=...) would round differently
    gap = max((float(np.linalg.norm(x)) for x in (lhs - rhs)[:, :, 0]), default=0.0)
    return (rhs[0, :, 0] if single else rhs[:, :, 0]), gap


@dataclass(frozen=True)
class AssociatedTupleCertificate:
    """Window-bounded evidence about the tuple on Ker V^*.

    A negative ``min_eigenvalue`` certifies that the associated tuple is not
    a 1/l-contraction (so no characteristic function through l exists); a
    non-negative minimum is supporting evidence only, bounded by the window.
    ``holds`` says the minimum is at least -PSD_TOL; ``vacuous`` marks an
    empty kernel within the window.
    """

    min_eigenvalue: Optional[float]
    holds: bool
    vacuous: bool


def associated_tuple_test(
    t: OperatorTuple,
    kernel: KernelSeries,
    form_kernel: KernelSeries,
    window_degree: int,
) -> AssociatedTupleCertificate:
    """Evaluate the 1/l-contraction form of the tuple restricted to Ker V^*.

    Builds the dilation on the window, takes the orthogonal complement of
    Ran V as the window part of Ker V^*, restricts the coordinate
    multipliers there, and reports the minimum eigenvalue of

        I - sum_{alpha != 0} b_alpha^{(l)} B^alpha (B^alpha)^*.

    Lowering-then-raising preserves degrees, so values on the window part
    are exact values of the infinite form.
    """
    t = t.to_float()
    bound = t.nilpotency_bound
    if bound is not None and window_degree < bound:
        raise ValueError(
            f"window degree {window_degree} below the nilpotency bound {bound}: "
            "Ran V would not fit"
        )
    dil = build_dilation(defect_data(t, kernel), window_degree)
    kernel_basis = range_complement(to_float_array(dil.matrix)).matrix
    if kernel_basis.shape[1] == 0:
        return AssociatedTupleCertificate(None, True, True)
    mats = tuple(dil.window.lower(i, kernel_basis).conj().T @ kernel_basis for i in range(t.num_vars))
    restricted = OperatorTuple(mats, None, window_degree)
    b_form = reciprocal_complement(form_kernel)
    total, _ = conjugated_sum(restricted, b_form)
    form = restricted.identity() - total
    lo = min_eigenvalue(form)
    return AssociatedTupleCertificate(lo, lo >= -PSD_TOL, False)
