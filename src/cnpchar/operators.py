"""Commuting matrix tuples, graded multiplication models, and defect calculus.

The central object is a commuting d-tuple T = (T_1, ..., T_d) of square
matrices. For a kernel with coefficients a_n and derived sequence b_n
(coefficients of 1 - 1/k), the tuple is a 1/k-contraction when

    I - sum_{alpha != 0} b_alpha T^alpha (T^alpha)^*   is positive,

and its defect operator is the square root of that positive operator. The
tuple is pure when the a-weighted sum of conjugations of the squared defect
reproduces the identity. Both sums are finite and exact for the graded
multiplication models built here, which are nilpotent. Every operator
series stops at the truncation of its series, the one depth the kernel
fixes; without a nilpotency bound, a sum that reaches it must end on an
increment of at most STOP_TOL, else ConvergenceError.

Exact-mode model tuples are expressed in the monomial basis z^alpha with the
squared norms 1/a_alpha carried as basis weights, so the matrices stay
rational and all squared-defect identities can be asserted with no rounding.
Float-mode tuples use the orthonormalized monomial basis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ._linalg import (
    EXACT,
    FLOAT,
    ExactnessError,
    Scalars,
    adjoint,
    is_exact_array,
    is_exactly_zero,
    max_abs,
    min_eigenvalue,
    point_stack,
    PsdRoot,
    psd_root,
    range_basis,
    spectral_norm,
    to_float_array,
)
from .multiindex import (
    BlockSpace,
    count_up_to_degree,
    degree,
    graded_space,
    unit,
)
from .series import (
    KernelSeries,
    RealSeries,
    _scalar_from_spec,
    _scalar_from_string,
    _scalar_to_string,
    contraction_diagonal,
    kernel_from_spec,
    kernel_to_spec,
    reciprocal_complement,
)


# Shared by every construction read from a DefectData: a squared defect (or the
# row defect of theta) fails positivity below -PSD_TOL, eigenvalues at or below
# _linalg.RANK_CUTOFF times the largest count as zeros, purity allows PURITY_TOL.
PSD_TOL = 1e-10
PURITY_TOL = 1e-10
STOP_TOL = 1e-13  # largest last increment of a walk with no nilpotency bound that ends at the truncation
COMMUTATION_TOL = 1e-12  # largest [T_i, T_j] of a float tuple, relative to max(1, max ||T_i||)^2
COINVARIANCE_TOL = 1e-10  # largest ||(I - PP*) T_i* P|| for which ``compress`` keeps the bound


class ConvergenceError(RuntimeError):
    """A truncated operator series did not settle below tolerance."""


class NotContractionError(ValueError):
    """The defining positivity of a 1/k-contraction fails."""


class NotPureError(ValueError):
    """An operation requires a pure tuple and the purity residual is too large."""


@dataclass(eq=False)
class OperatorTuple:
    """A commuting d-tuple of square matrices on an n-dimensional space.

    ``weights`` are the squared norms of the (orthogonal) basis vectors; None
    means the basis is orthonormal. ``basis_labels`` names basis vectors by
    multi-indices for graded models. ``nilpotency_bound`` is a degree nu with
    T^alpha = 0 whenever |alpha| > nu, when one is known; it makes all
    operator series finite and exact. ``mats`` are copied at construction
    and read-only, so the power stack the tuple keeps cannot go stale.
    """

    mats: tuple
    weights: Optional[np.ndarray] = None
    basis_labels: Optional[tuple] = None
    nilpotency_bound: Optional[int] = None
    kernel: Optional[KernelSeries] = None

    def __post_init__(self):
        self.mats = tuple(np.array(m) for m in self.mats)
        if not self.mats:
            raise ValueError("empty tuple")
        n = self.mats[0].shape[0]
        for m in self.mats:
            m.setflags(write=False)
            if m.shape != (n, n):
                raise ValueError("tuple entries must be square matrices of equal size")
        if self.weights is not None:
            self.weights = np.asarray(self.weights)
            if self.weights.shape != (n,):
                raise ValueError("weights must match the matrix size")
        self._check_commutation()
        self._powers = self.scalars.zeros((0, self.size, self.size))  # the largest power stack built so far

    def _check_commutation(self):
        scale = max(1.0, max(spectral_norm(m) for m in self.mats) ** 2)
        for i in range(len(self.mats)):
            for j in range(i + 1, len(self.mats)):
                gap = self.mats[i] @ self.mats[j] - self.mats[j] @ self.mats[i]
                if self.exact:
                    ok = all(x == 0 for x in gap.flat)
                else:
                    ok = max_abs(gap) <= COMMUTATION_TOL * scale
                if not ok:
                    raise ValueError(f"tuple does not commute: [T_{i}, T_{j}] != 0")

    @property
    def num_vars(self) -> int:
        return len(self.mats)

    @property
    def size(self) -> int:
        return self.mats[0].shape[0]

    @property
    def exact(self) -> bool:
        return is_exact_array(self.mats[0])

    @property
    def scalars(self) -> Scalars:
        """The arithmetic of the matrices: EXACT for object arrays, else FLOAT."""
        return EXACT if self.exact else FLOAT

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(*self.mats)

    def identity(self) -> np.ndarray:
        return self.scalars.eye(self.size, self.dtype)

    def powers(self, top: int) -> tuple[BlockSpace, np.ndarray]:
        """Every T^alpha with |alpha| <= top: (their labels in graded order, an (L, n, n) stack).

        T^alpha = T_i T^(alpha - e_i), with i the first nonzero entry of
        alpha, and T^alpha = 0 above the nilpotency bound. The stack is built
        once, read-only, for the largest ``top`` asked so far; a smaller one
        gets a view of its first L matrices.
        """
        space = graded_space(self.num_vars, top)
        if len(self._powers) < len(space.labels):
            stack = self.scalars.zeros((len(space.labels), self.size, self.size), self.dtype)
            stack[0] = self.identity()
            bound = top if self.nilpotency_bound is None else min(top, self.nilpotency_bound)
            for j, alpha in enumerate(space.labels[1 : count_up_to_degree(self.num_vars, bound)], 1):
                i = next(k for k, a in enumerate(alpha) if a > 0)
                stack[j] = self.mats[i] @ stack[space.index[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]]]
            stack.setflags(write=False)
            self._powers = stack
        return space, self._powers[: len(space.labels)]

    def to_float(self) -> "OperatorTuple":
        """Re-express in the orthonormalized basis with float entries; a float tuple with weights is rescaled too."""
        if self.weights is None:
            return replace(self, mats=tuple(map(to_float_array, self.mats))) if self.exact else self
        scale = np.sqrt(to_float_array(self.weights).astype(float))
        mats = tuple(to_float_array(m) * scale[:, None] / scale[None, :] for m in self.mats)
        return OperatorTuple(mats, None, self.basis_labels, self.nilpotency_bound, self.kernel)


def model_tuple(kernel: KernelSeries, dim: int, degree_cut: int, mode: str = "float") -> OperatorTuple:
    """Compression of the coordinate multiplication tuple to polynomials of degree <= degree_cut.

    In float mode the basis is the orthonormalized monomials, so the matrix
    entries are the norm ratios sqrt(a_alpha / a_{alpha+e_i}). In exact mode
    the basis is the monomials themselves with squared norms 1/a_alpha kept
    as weights, and every entry is 0 or 1.
    """
    if degree_cut > kernel.truncation:
        raise ValueError("model degree exceeds the kernel truncation")
    space = graded_space(dim, degree_cut)
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    sc = EXACT if mode == "exact" else FLOAT
    a = space.lift(kernel, EXACT)
    mats = [sc.zeros((space.dim, space.dim)) for _ in range(dim)]
    for i, m in enumerate(mats):
        src, dst = space.shift(unit(dim, i))
        m[dst, src] = Fraction(1) if sc.exact else np.sqrt((a[src] / a[dst]).astype(float))
    weights = 1 / a if sc.exact else None
    return OperatorTuple(tuple(mats), weights, space.labels, degree_cut, kernel)


# ---------------------------------------------------------------------------
# graded operator series


def _graded_powers(t: OperatorTuple, series: RealSeries) -> tuple[BlockSpace, np.ndarray]:
    """The labels of a graded walk up to its last degree, and their powers: ``t.powers`` of that degree.

    That degree is the first of the truncation, the nilpotency bound and the
    series' last nonzero degree.
    """
    bound = t.nilpotency_bound
    top = series.truncation if bound is None else min(series.truncation, bound)
    return t.powers(min(top, series.last_nonzero))


def _graded_sum(t: OperatorTuple, series: RealSeries, space: BlockSpace, scalars: Scalars, term, zero):
    """sum of term(i, c_i) over the labels ``space`` of ``_graded_powers(t, series)``, degree by degree.

    c = space.lift(series, scalars), and a label with c_i = 0 is skipped.
    The walk stops at the truncation. Without a nilpotency bound, a walk
    that ends there must end on a positive-degree increment with entries at
    most STOP_TOL, else ConvergenceError. Returns (total, exact_stop);
    exact_stop says the walk reached the nilpotency bound, so the sum is
    finite and complete.
    """
    bound, stop = t.nilpotency_bound, int(space.degrees[-1])
    coeffs = space.lift(series, scalars)
    nonzero = coeffs != 0
    total = inc = zero
    for deg in range(stop + 1):
        inc = zero
        for i in np.flatnonzero(nonzero & (space.degrees == deg)):
            inc = inc + term(i, coeffs[i])
        total = total + inc
    if bound is None and 0 < stop == series.truncation and max_abs(inc) > STOP_TOL:
        raise ConvergenceError(f"operator series did not settle below {STOP_TOL} by degree {stop}")
    return total, bound is not None and bound <= series.truncation


def conjugated_sum(t: OperatorTuple, series: RealSeries, middle: Optional[np.ndarray] = None):
    """sum over alpha of c_alpha T^alpha [middle] (T^alpha)^*, with c the series' lift.

    Summed and stopped at the truncation by ``_graded_sum``; returns (total, exact_stop).
    """
    space, powers = _graded_powers(t, series)

    def term(i, c):
        p = powers[i]
        return c * ((p if middle is None else p @ middle) @ adjoint(p, t.weights))

    zero = t.scalars.zeros((t.size, t.size), t.dtype)
    return _graded_sum(t, series, space, t.scalars, term, zero)


@dataclass
class DefectData:
    """Defect operators of a tuple for a kernel and, optionally, its CNP factor.

    ``defect_sq`` is I minus the b-weighted conjugation sum for the kernel;
    ``pick_defect_sq`` the analogue for the factor. Each is decomposed once:
    the root ``defect`` with the orthonormal basis ``ran_defect_basis`` of
    its range, and the root ``pick_defect`` with its pseudo-inverse
    ``pick_defect_pinv``. Every later construction (the dilation, the
    characteristic function) reads these, so all of them use the same
    coordinates on Ran Defect, and ``build_dilation`` and ``build_charfn``
    take this object rather than computing or copying any of it. The
    spectral fields are stored when representable in the tuple's arithmetic
    (always in float mode), else None. ``purity_residual`` is the distance
    of the a-weighted conjugation sum of defect_sq from the identity.
    """

    ops: OperatorTuple
    kernel: KernelSeries
    pick_factor: Optional[KernelSeries]
    defect_sq: np.ndarray
    defect: Optional[np.ndarray]
    ran_defect_basis: Optional[np.ndarray]
    pick_defect_sq: Optional[np.ndarray]
    pick_defect: Optional[np.ndarray]
    pick_defect_pinv: Optional[np.ndarray]
    purity_residual: float
    purity_exact: bool

    @property
    def pure(self) -> bool:
        """The purity residual is within PURITY_TOL or exactly 0."""
        return self.purity_residual <= PURITY_TOL or self.purity_exact

    def require_pure(self) -> None:
        """Raise NotPureError unless the tuple is ``pure``."""
        if not self.pure:
            raise NotPureError(
                f"tuple is not pure: purity residual {self.purity_residual:.3e} > {PURITY_TOL}"
            )


def defect_data(
    t: OperatorTuple,
    kernel: KernelSeries,
    pick_factor: Optional[KernelSeries] = None,
) -> DefectData:
    """Defect operators and purity diagnostics for t as a 1/kernel-contraction.

    Every sum stops at the truncation of its series. Raises
    NotContractionError when I minus the b-sum has an eigenvalue below
    -PSD_TOL, ConvergenceError when a non-nilpotent sum has not settled
    below STOP_TOL by the truncation.
    Eigenvalues of the squared defects at or below RANK_CUTOFF times the
    largest count as zeros.
    """
    b = reciprocal_complement(kernel)
    s_sum, _ = conjugated_sum(t, b)
    delta_sq = t.identity() - s_sum
    delta = _checked_root(delta_sq, f"not a 1/k-contraction for {_kname(kernel)}")

    pick_defect_sq = None
    gamma = None
    if pick_factor is not None:
        b_s = reciprocal_complement(pick_factor)
        s_sum_pick, _ = conjugated_sum(t, b_s)
        pick_defect_sq = t.identity() - s_sum_pick
        gamma = _checked_root(pick_defect_sq, "not a 1/s-contraction for the CNP factor")

    purity = purity_check(t, kernel, delta_sq)
    return DefectData(
        ops=t,
        kernel=kernel,
        pick_factor=pick_factor,
        defect_sq=delta_sq,
        defect=None if delta is None else delta.root,
        ran_defect_basis=None if delta is None else delta.basis,
        pick_defect_sq=pick_defect_sq,
        pick_defect=None if gamma is None else gamma.root,
        pick_defect_pinv=None if gamma is None else gamma.pinv,
        purity_residual=purity.residual,
        purity_exact=purity.exact,
    )


def _kname(kernel: KernelSeries) -> str:
    return f"kernel(dim={kernel.dim}, N={kernel.truncation})"


def _checked_root(a_sq: np.ndarray, message: str) -> Optional[PsdRoot]:
    """The spectral data of a squared defect, after its positivity check.

    None when the root is not representable in exact arithmetic; positivity
    is then checked in floats.
    """
    try:
        root = psd_root(a_sq)
        lo = root.min_eigenvalue
    except ExactnessError:
        root, lo = None, min_eigenvalue(a_sq)
    if lo < -PSD_TOL:
        raise NotContractionError(f"{message}: eigenvalue {lo:.3e} < -{PSD_TOL}")
    return root


@dataclass(frozen=True)
class PurityReport:
    residual: float
    exact: bool


def purity_check(t: OperatorTuple, kernel: KernelSeries, defect_sq: np.ndarray) -> PurityReport:
    """Distance of sum_alpha a_alpha T^alpha defect_sq (T^alpha)^* from the identity.

    Purity failure is a verdict (nonzero residual), not an error. The exact
    flag is set when the sum terminated at a nilpotency bound and the
    difference vanishes identically.
    """
    total, exact_stop = conjugated_sum(t, kernel, middle=defect_sq)
    gap = total - t.identity()
    residual = spectral_norm(gap)
    exact = bool(t.exact and exact_stop and all(x == 0 for x in gap.flat))
    return PurityReport(residual, exact)


def operator_series(t: OperatorTuple, series: RealSeries, points: Sequence) -> np.ndarray:
    """sum_alpha c_alpha conj(point^alpha) T^alpha at a (d,) point or a (P, d) stack, c the series' lift.

    Returns (n, n) or (P, n, n). Summed by ``_graded_sum`` for all points at
    once and stopped at the truncation: finite (hence exact) for nilpotent
    tuples, and a stack raises ConvergenceError when any point's last
    increment exceeds STOP_TOL. Exact only at rational points of an exact
    tuple; complex at any other points, real ones and real tuples included.
    """
    pts, single = point_stack(points)
    if len(pts) and pts.shape[1] != t.num_vars:
        raise ValueError("dimension mismatch")
    sc = t.scalars.at(pts)
    space, powers = _graded_powers(t, series)
    conj = np.conjugate(space.monomials(pts))

    def term(i, c):
        return sc.monomial(c * conj[:, i])[:, None, None] * sc.array(powers[i])

    zero = sc.zeros((len(pts), t.size, t.size), complex)
    total, _ = _graded_sum(t, series, space, sc, term, zero)
    return total[0] if single else total


def compress(t: OperatorTuple, basis: np.ndarray) -> OperatorTuple:
    """Compression P* T_i P of ``t.to_float()`` to the span of orthonormal basis columns.

    Checks co-invariance ||(I - PP*) T_i* P|| <= COINVARIANCE_TOL and only
    warns on violation (invariant complements are legitimately compressed
    too); the nilpotency bound is inherited only when the check passes.
    """
    t = t.to_float()
    basis = np.asarray(basis)
    n = t.size
    if basis.ndim != 2 or basis.shape[0] != n:
        raise ValueError("basis must be a matrix of column vectors on the tuple's space")
    gram_gap = max_abs(basis.conj().T @ basis - np.eye(basis.shape[1]))
    if gram_gap > 1e-8:
        raise ValueError(f"non-orthonormal basis: Gram deviation {gram_gap:.3e}")
    proj_out = np.eye(n) - basis @ basis.conj().T
    residuals = [spectral_norm(proj_out @ m.conj().T @ basis) for m in t.mats]
    co_invariant = max(residuals) <= COINVARIANCE_TOL
    if not co_invariant:
        warnings.warn(
            f"compression subspace is not co-invariant (residual {max(residuals):.3e}); "
            "defect identities may fail",
            stacklevel=2,
        )
    mats = tuple(basis.conj().T @ m @ basis for m in t.mats)
    return OperatorTuple(
        mats,
        None,
        None,
        t.nilpotency_bound if co_invariant else None,
        t.kernel,
    )


def random_coinvariant_compression(t: OperatorTuple, rng: np.random.Generator) -> OperatorTuple:
    """Compression to the adjoint-invariant subspace generated by one random vector.

    The span of {T^{*alpha} v} for the seed vector v is invariant for every
    adjoint, hence co-invariant for the tuple, so the compression of a pure
    tuple stays pure.
    """
    t = t.to_float()
    n = t.size
    vecs = rng.standard_normal((n, 1))
    basis = range_basis(vecs)
    while True:
        extended = [basis]
        for i in range(t.num_vars):
            extended.append(t.mats[i].conj().T @ basis)
        new_basis = range_basis(np.hstack(extended))
        if new_basis.shape[1] == basis.shape[1]:
            return compress(t, new_basis)
        basis = new_basis


def tuple_to_spec(t: OperatorTuple) -> dict:
    """JSON-compatible dict: dense row-major matrices, rational strings in exact mode.

    A float entry with a nonzero imaginary part is written as a complex string.
    """
    def encode(m):
        if t.exact:
            return [[_scalar_to_string(x) for x in row] for row in m.tolist()]
        return [[float(x.real) if x.imag == 0 else str(x) for x in row] for row in m.tolist()]

    return {
        "mode": "exact" if t.exact else "float",
        "matrices": [encode(m) for m in t.mats],
        "weights": None if t.weights is None else [_scalar_to_string(w) for w in t.weights],
        "basis_labels": None if t.basis_labels is None else [list(l) for l in t.basis_labels],
        "nilpotency_bound": t.nilpotency_bound,
        "kernel": None if t.kernel is None else kernel_to_spec(t.kernel),
    }


def tuple_from_spec(spec: dict) -> OperatorTuple:
    if not isinstance(spec, dict):
        raise ValueError("tuple spec must be an object with 'mode' and 'matrices' fields")
    try:
        mode = spec["mode"]
        raw = spec["matrices"]
    except KeyError as exc:
        raise ValueError(f"tuple spec missing field {exc}") from exc
    if mode == "exact":
        try:
            mats = tuple(
                np.array([[_scalar_from_string(x) if isinstance(x, str) else Fraction(x) for x in row] for row in m], dtype=object)
                for m in raw
            )
            # a Fraction too large for a float overflows here, as it would in the float backend
            finite = all(m.ndim == 2 and all(map(math.isfinite, m.flat)) for m in mats)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"tuple matrices must hold finite numbers: {exc}") from exc
        if not finite:
            raise ValueError("tuple matrices must be 2-d arrays of finite numbers")
    elif mode == "float":
        # complex strings such as "0.3+0.4j" parse too; the tuple is complex only if an entry is
        try:
            mats = tuple(np.array(m, dtype=complex) for m in raw)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"tuple matrices must hold numbers: {exc}") from exc
        if not all(m.ndim == 2 and np.isfinite(m).all() for m in mats):
            raise ValueError("tuple matrices must be 2-d arrays of finite numbers")
        if not any(m.imag.any() for m in mats):
            mats = tuple(m.real.copy() for m in mats)
    else:
        raise ValueError(f"unknown tuple mode {mode!r}")
    n, d = (len(mats[0]) if mats else 0), len(mats)
    weights = _spec_field(spec, "weights", lambda ws: np.array(_listed(ws, n, _positive), dtype=object))
    labels = _spec_field(spec, "basis_labels", lambda ls: tuple(_listed(ls, n, lambda l: tuple(_listed(l, d, _count)))))
    bound = _spec_field(spec, "nilpotency_bound", _count)
    kernel = spec.get("kernel")
    if kernel is not None:
        kernel = kernel_from_spec(kernel)
    t = OperatorTuple(mats, weights, labels, bound, kernel)
    if bound is not None:
        _check_nilpotent(t)
    return t


def _check_nilpotent(t: OperatorTuple) -> None:
    """ValueError naming ``nilpotency_bound`` unless T^alpha vanishes for every |alpha| = bound + 1.

    The powers come from the same tuple without its bound, since ``powers``
    is zero above it. Exact powers must be exactly zero; float entries may
    reach COMMUTATION_TOL * max(1, max ||T_i||)^(bound + 1).
    """
    bound = t.nilpotency_bound
    tol = COMMUTATION_TOL * max(1.0, max(spectral_norm(m) for m in t.mats)) ** (bound + 1)
    space, stack = replace(t, nilpotency_bound=None).powers(bound + 1)
    for i in np.flatnonzero(space.degrees > bound):
        if not (is_exactly_zero(stack[i]) if t.exact else max_abs(stack[i]) <= tol):
            raise ValueError(f"tuple spec field 'nilpotency_bound': T^{space.labels[i]} is not zero, so {bound} is no bound")


def _spec_field(spec: dict, name: str, read):
    """``read(spec[name])``, or None when the field is absent or null; a bad value is a ValueError naming the field."""
    try:
        return None if spec.get(name) is None else read(spec[name])
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"tuple spec field {name!r}: {exc}") from exc


def _listed(value, count: int, read) -> list:
    if not isinstance(value, list) or len(value) != count:
        raise ValueError(f"expected a list of {count} entries, got {value!r}")
    return [read(x) for x in value]


def _count(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise ValueError(f"{x!r} is not a non-negative integer")
    return x


def _positive(x):
    value = _scalar_from_spec(x)
    if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{x!r} is not a positive finite number")
    return value


def quadratic_form_certificate(
    kernel: KernelSeries,
    form_kernel: KernelSeries,
    base_degree: int,
    labels: Sequence,
    *,
    window_degree: int,
) -> list:
    """Values of the contraction form of ``form_kernel`` at the monomials z^gamma of a co-invariant window.

    The window is the multiplication model of ``kernel`` up to
    ``window_degree``. With P the projection onto monomials of degree
    above ``base_degree`` and b from ``form_kernel``, the form
    I - sum_{alpha != 0} b_alpha M^alpha P M^{alpha *} is diagonal on
    monomials, and its entry at gamma is the last value of
    ``series.contraction_diagonal`` at n = |gamma| and
    top = max(0, min(n - base_degree - 1, the truncation of b)), in the
    arithmetic of the coefficients. An input that is not a label of the
    window is a ValueError naming it.
    """
    if kernel.dim != form_kernel.dim:
        raise ValueError("kernel dimensions differ")
    degrees = [_label_degree(v, kernel.dim) for v in labels]
    if window_degree > kernel.truncation:
        raise ValueError("model degree exceeds the kernel truncation")
    for v, n in zip(labels, degrees):
        if n is None or n > window_degree:
            raise ValueError(f"test vector {v!r} is not a label of the window of degree {window_degree}")
    return [
        contraction_diagonal(
            kernel, form_kernel, n, max(0, min(n - base_degree - 1, form_kernel.truncation)), last=True
        )[0]
        for n in degrees
    ]


def _label_degree(v, dim: int) -> Optional[int]:
    """|v| for a multi-index v (a tuple of ``dim`` non-negative ints), else None."""
    if isinstance(v, tuple) and len(v) == dim and all(isinstance(x, int) and x >= 0 for x in v):
        return degree(v)
    return None
