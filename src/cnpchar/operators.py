"""Commuting matrix tuples, graded multiplication models, and defect calculus.

The central object is a commuting d-tuple T = (T_1, ..., T_d) of square
matrices. For a kernel with coefficients a_n and derived sequence b_n
(coefficients of 1 - 1/k), the tuple is a 1/k-contraction when

    I - sum_{alpha != 0} b_alpha T^alpha (T^alpha)^*   is positive,

and its defect operator is the square root of that positive operator. The
tuple is pure when the a-weighted sum of conjugations of the squared defect
reproduces the identity. Both sums are finite and exact for the graded
multiplication models built here, which are nilpotent; otherwise they are
truncated with increment-based stopping.

Exact-mode model tuples are expressed in the monomial basis z^alpha with the
squared norms 1/a_alpha carried as basis weights, so the matrices stay
rational and all squared-defect identities can be asserted with no rounding.
Float-mode tuples use the orthonormalized monomial basis.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
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
    MultiIndex,
    add,
    compositions,
    degree,
    enumerate_up_to_degree,
    subtract,
    unit,
)
from .series import (
    KernelSeries,
    RealSeries,
    _scalar_from_string,
    _scalar_to_string,
    kernel_from_spec,
    kernel_to_spec,
    reciprocal_complement,
)


# Shared by every construction read from a DefectData: a squared defect (or the
# row defect of theta) fails positivity below -PSD_TOL, eigenvalues at or below
# RANK_CUTOFF times the largest count as zeros, and purity allows PURITY_TOL.
PSD_TOL = 1e-10
RANK_CUTOFF = 1e-10
PURITY_TOL = 1e-10


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
    operator series finite and exact.

    Tuples are immutable after construction apart from the power cache,
    whose entries are idempotent, so concurrent readers see pure-function
    behavior.
    """

    mats: tuple
    weights: Optional[np.ndarray] = None
    basis_labels: Optional[tuple] = None
    nilpotency_bound: Optional[int] = None
    kernel: Optional[KernelSeries] = None
    commutation_tol: float = 1e-12
    _powers: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.mats = tuple(np.asarray(m) for m in self.mats)
        if not self.mats:
            raise ValueError("empty tuple")
        n = self.mats[0].shape[0]
        for m in self.mats:
            if m.shape != (n, n):
                raise ValueError("tuple entries must be square matrices of equal size")
        if self.weights is not None:
            self.weights = np.asarray(self.weights)
            if self.weights.shape != (n,):
                raise ValueError("weights must match the matrix size")
        self._check_commutation()

    def _check_commutation(self):
        scale = max(1.0, max(spectral_norm(m) for m in self.mats) ** 2)
        for i in range(len(self.mats)):
            for j in range(i + 1, len(self.mats)):
                gap = self.mats[i] @ self.mats[j] - self.mats[j] @ self.mats[i]
                if self.exact:
                    ok = all(x == 0 for x in gap.flat)
                else:
                    ok = max_abs(gap) <= self.commutation_tol * scale
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

    def power(self, alpha: MultiIndex) -> np.ndarray:
        """T^alpha = T_1^a1 ... T_d^ad, memoized along the graded recursion."""
        alpha = tuple(alpha)
        if len(alpha) != self.num_vars:
            raise ValueError("multi-index dimension mismatch")
        cached = self._powers.get(alpha)
        if cached is not None:
            return cached
        if all(a == 0 for a in alpha):
            out = self.identity()
        elif self.nilpotency_bound is not None and degree(alpha) > self.nilpotency_bound:
            out = self.scalars.zeros((self.size, self.size), self.dtype)
        else:
            i = next(j for j, a in enumerate(alpha) if a > 0)
            out = self.mats[i] @ self.power(subtract_unit(alpha, i))
        self._powers[alpha] = out
        return out

    def power_adjoint(self, alpha: MultiIndex) -> np.ndarray:
        return adjoint(self.power(alpha), self.weights)

    def mat_adjoint(self, i: int) -> np.ndarray:
        return adjoint(self.mats[i], self.weights)

    def to_float(self) -> "OperatorTuple":
        """Re-express in the orthonormalized basis with float entries."""
        if not self.exact:
            return self
        if self.weights is None:
            mats = tuple(to_float_array(m) for m in self.mats)
        else:
            scale = np.sqrt(to_float_array(self.weights).astype(float))
            mats = tuple(to_float_array(m) * scale[:, None] / scale[None, :] for m in self.mats)
        return OperatorTuple(
            mats, None, self.basis_labels, self.nilpotency_bound, self.kernel
        )


def subtract_unit(alpha: MultiIndex, i: int) -> MultiIndex:
    return tuple(a - 1 if j == i else a for j, a in enumerate(alpha))


def model_tuple(kernel: KernelSeries, dim: int, degree_cut: int, mode: str = "float") -> OperatorTuple:
    """Compression of the coordinate multiplication tuple to polynomials of degree <= degree_cut.

    In float mode the basis is the orthonormalized monomials, so the matrix
    entries are the norm ratios sqrt(a_alpha / a_{alpha+e_i}). In exact mode
    the basis is the monomials themselves with squared norms 1/a_alpha kept
    as weights, and every entry is 0 or 1.
    """
    if degree_cut > kernel.truncation:
        raise ValueError("model degree exceeds the kernel truncation")
    space = BlockSpace(enumerate_up_to_degree(dim, degree_cut), 1)
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    sc = EXACT if mode == "exact" else FLOAT
    a = space.lift(kernel, EXACT)
    mats = [sc.zeros((space.dim, space.dim)) for _ in range(dim)]
    for src, lab in enumerate(space.labels):
        if space.degrees[src] == degree_cut:
            continue
        for i in range(dim):
            dst = space.index[add(lab, unit(dim, i))]
            mats[i][dst, src] = Fraction(1) if sc.exact else np.sqrt(float(a[src] / a[dst]))
    weights = 1 / a if sc.exact else None
    return OperatorTuple(tuple(mats), weights, space.labels, degree_cut, kernel)


# ---------------------------------------------------------------------------
# graded operator series


def _graded_stop(t: OperatorTuple, series: RealSeries, degree_cap: int) -> tuple[int, int]:
    """(top, stop): the cap of a graded walk and its last degree.

    top is the first of ``degree_cap``, the truncation and the nilpotency
    bound; stop is also at most the series' last nonzero degree.
    """
    bound = t.nilpotency_bound
    top = min(degree_cap, series.truncation, degree_cap if bound is None else bound)
    stop = min(top, max((i for i, c in enumerate(series.coefficients) if c != 0), default=0))
    return top, stop


def _graded_sum(t: OperatorTuple, series: RealSeries, term, zero, degree_cap: int, stop_tol: float):
    """sum over alpha of term(alpha, c_alpha), c_alpha = series.coeff(alpha), degree by degree.

    Zero coefficients are skipped. The walk runs from degree 0 to the first
    of ``degree_cap``, the truncation, the nilpotency bound and the series'
    last nonzero degree (``_graded_stop``). Without a nilpotency bound, a
    walk that ends at its cap (with ``degree_cap`` at most the truncation)
    must end on a positive-degree increment with entries at most
    ``stop_tol``, else ConvergenceError. Returns (total, exact_stop);
    exact_stop says the walk reached the nilpotency bound, so the sum is
    finite and complete.
    """
    if series.dim != t.num_vars:
        raise ValueError("series dimension does not match the tuple")
    bound = t.nilpotency_bound
    top, stop = _graded_stop(t, series, degree_cap)
    total = inc = zero
    for deg in range(stop + 1):
        inc = zero
        for alpha in compositions(deg, t.num_vars):
            c = series.coeff(alpha)
            if c != 0:
                inc = inc + term(alpha, c)
        total = total + inc
    if bound is None and degree_cap <= series.truncation and 0 < stop == top and max_abs(inc) > stop_tol:
        raise ConvergenceError(f"operator series did not settle below {stop_tol} by degree {top}")
    return total, bound is not None and bound <= min(degree_cap, series.truncation)


def conjugated_sum(
    t: OperatorTuple,
    series: RealSeries,
    middle: Optional[np.ndarray] = None,
    degree_cap: int = 64,
    stop_tol: float = 1e-13,
):
    """sum over alpha of series.coeff(alpha) T^alpha [middle] (T^alpha)^*.

    Summed and stopped by ``_graded_sum``; returns (total, exact_stop).
    """
    sc = t.scalars

    def term(alpha, c):
        p = t.power(alpha)
        return sc.coefficient(c) * ((p if middle is None else p @ middle) @ adjoint(p, t.weights))

    zero = sc.zeros((t.size, t.size), t.dtype)
    return _graded_sum(t, series, term, zero, degree_cap, stop_tol)


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
    degree_cap: int = 64,
    stop_tol: float = 1e-13,
) -> DefectData:
    """Defect operators and purity diagnostics for t as a 1/kernel-contraction.

    Raises NotContractionError when I minus the b-sum has an eigenvalue below
    -PSD_TOL, ConvergenceError when a non-nilpotent sum does not settle.
    Eigenvalues of the squared defects at or below RANK_CUTOFF times the
    largest count as zeros.
    """
    b = reciprocal_complement(kernel)
    s_sum, _ = conjugated_sum(t, b, degree_cap=degree_cap, stop_tol=stop_tol)
    delta_sq = t.identity() - s_sum
    delta = _checked_root(delta_sq, f"not a 1/k-contraction for {_kname(kernel)}")

    pick_defect_sq = None
    gamma = None
    if pick_factor is not None:
        b_s = reciprocal_complement(pick_factor)
        s_sum_pick, _ = conjugated_sum(t, b_s, degree_cap=degree_cap, stop_tol=stop_tol)
        pick_defect_sq = t.identity() - s_sum_pick
        gamma = _checked_root(pick_defect_sq, "not a 1/s-contraction for the CNP factor")

    purity = purity_check(t, kernel, delta_sq, degree_cap=degree_cap, stop_tol=stop_tol)
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
        root = psd_root(a_sq, RANK_CUTOFF)
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


def purity_check(
    t: OperatorTuple,
    kernel: KernelSeries,
    defect_sq: np.ndarray,
    degree_cap: int = 64,
    stop_tol: float = 1e-13,
) -> PurityReport:
    """Distance of sum_alpha a_alpha T^alpha defect_sq (T^alpha)^* from the identity.

    Purity failure is a verdict (nonzero residual), not an error. The exact
    flag is set when the sum terminated at a nilpotency bound and the
    difference vanishes identically.
    """
    total, exact_stop = conjugated_sum(
        t, kernel, middle=defect_sq, degree_cap=degree_cap, stop_tol=stop_tol
    )
    gap = total - t.identity()
    residual = spectral_norm(gap)
    exact = bool(t.exact and exact_stop and all(x == 0 for x in gap.flat))
    return PurityReport(residual, exact)


def operator_series(
    t: OperatorTuple,
    series: RealSeries,
    points: Sequence,
    degree_cap: int = 64,
    stop_tol: float = 1e-13,
) -> np.ndarray:
    """sum_alpha series.coeff(alpha) conj(point^alpha) T^alpha at a (d,) point or a (P, d) stack.

    Returns (n, n) or (P, n, n). Summed and stopped by ``_graded_sum`` for
    all points at once: finite (hence exact) for nilpotent tuples, and a
    stack raises ConvergenceError when any point's last increment exceeds
    ``stop_tol``. Exact only at rational points; elsewhere the coefficients
    come from the series' float view.
    """
    pts, single = point_stack(points)
    if any(len(p) != t.num_vars for p in pts):
        raise ValueError("dimension mismatch")
    sc = t.scalars.at(pts)
    series = sc.series(series)
    space = BlockSpace(enumerate_up_to_degree(t.num_vars, _graded_stop(t, series, degree_cap)[1]), 1)
    conj = np.conjugate(space.monomials(pts))

    def term(alpha, c):
        return sc.monomial(c * conj[:, space.index[alpha]])[:, None, None] * sc.array(t.power(alpha))

    zero = sc.zeros((len(pts), t.size, t.size), complex)
    total, _ = _graded_sum(t, series, term, zero, degree_cap, stop_tol)
    if not sc.exact and not any(isinstance(x, complex) for p in pts for x in np.asarray(p).flat):
        # real points, real tuple: keep the result real when it is
        if np.allclose(total.imag, 0.0):
            total = total.real
    return total[0] if single else total


def compress(t: OperatorTuple, basis: np.ndarray, coinvariance_tol: float = 1e-10) -> OperatorTuple:
    """Compression P* T_i P to the span of orthonormal basis columns.

    Checks co-invariance ||(I - PP*) T_i* P|| <= tol and only warns on
    violation (invariant complements are legitimately compressed too); the
    nilpotency bound is inherited only when the check passes.
    """
    if t.exact:
        raise ExactnessError("compress expects a float-mode tuple; call to_float() first")
    basis = np.asarray(basis)
    n = t.size
    if basis.ndim != 2 or basis.shape[0] != n:
        raise ValueError("basis must be a matrix of column vectors on the tuple's space")
    gram_gap = max_abs(basis.conj().T @ basis - np.eye(basis.shape[1]))
    if gram_gap > 1e-8:
        raise ValueError(f"non-orthonormal basis: Gram deviation {gram_gap:.3e}")
    proj_out = np.eye(n) - basis @ basis.conj().T
    residuals = [spectral_norm(proj_out @ t.mat_adjoint(i) @ basis) for i in range(t.num_vars)]
    co_invariant = max(residuals) <= coinvariance_tol
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


def random_coinvariant_compression(
    t: OperatorTuple, rng: np.random.Generator, num_seeds: int = 1
) -> OperatorTuple:
    """Compression to the adjoint-invariant subspace generated by random vectors.

    The span of {T^{*alpha} v} over the seed vectors v is invariant for every
    adjoint, hence co-invariant for the tuple, so the compression of a pure
    tuple stays pure.
    """
    if t.exact:
        t = t.to_float()
    n = t.size
    vecs = rng.standard_normal((n, num_seeds))
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
    """JSON-compatible dict: dense row-major matrices, rational strings in exact mode."""
    def encode(m):
        if t.exact:
            return [[_scalar_to_string(x) for x in row] for row in m.tolist()]
        return [[float(x) for x in row] for row in m.tolist()]

    return {
        "mode": "exact" if t.exact else "float",
        "matrices": [encode(m) for m in t.mats],
        "weights": None if t.weights is None else [_scalar_to_string(w) for w in t.weights],
        "basis_labels": None if t.basis_labels is None else [list(l) for l in t.basis_labels],
        "nilpotency_bound": t.nilpotency_bound,
        "kernel": None if t.kernel is None else kernel_to_spec(t.kernel),
    }


def tuple_from_spec(spec: dict) -> OperatorTuple:
    try:
        mode = spec["mode"]
        raw = spec["matrices"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"tuple spec missing field {exc}") from exc
    if mode == "exact":
        mats = tuple(
            np.array([[_scalar_from_string(x) if isinstance(x, str) else Fraction(x) for x in row] for row in m], dtype=object)
            for m in raw
        )
    elif mode == "float":
        mats = tuple(np.array(m, dtype=float) for m in raw)
    else:
        raise ValueError(f"unknown tuple mode {mode!r}")
    weights = spec.get("weights")
    if weights is not None:
        weights = np.array([_scalar_from_string(w) if isinstance(w, str) else w for w in weights], dtype=object)
    labels = spec.get("basis_labels")
    if labels is not None:
        labels = tuple(tuple(l) for l in labels)
    kernel = spec.get("kernel")
    if kernel is not None:
        kernel = kernel_from_spec(kernel)
    return OperatorTuple(mats, weights, labels, spec.get("nilpotency_bound"), kernel)


def quadratic_form_certificate(
    kernel: KernelSeries,
    form_kernel: KernelSeries,
    base_degree: int,
    vectors: Sequence,
    window_degree: Optional[int] = None,
    mode: str = "exact",
):
    """Values of the contraction form of ``form_kernel`` on a co-invariant window.

    For each test vector v in the multiplication model of ``kernel`` up to
    ``window_degree``, the value is

        < (I - sum_{alpha != 0} b_alpha M^alpha P M^{alpha *}) v, v > / <v, v>

    with P the projection onto monomials of degree above ``base_degree`` and
    b from ``form_kernel``. With a and b the multi-index lifts, M^{alpha *}
    sends e_gamma = sqrt(a_gamma) z^gamma to sqrt(a_{gamma-alpha} / a_gamma)
    e_{gamma-alpha}, so the form is diagonal and no matrix is formed:

        d_gamma = 1 - sum_{0 != alpha <= gamma, |gamma| - |alpha| > base}
                      b_alpha a_{gamma-alpha} / a_gamma.

    A label gamma gets d_gamma; a nonzero coordinate array over the window's
    labels in graded order gets sum w |v_gamma|^2 d_gamma / sum w |v_gamma|^2,
    with w = 1/a_gamma in exact mode (over z^gamma; rational values) and
    w = 1 in float mode (over e_gamma; float coefficients only).
    """
    if kernel.dim != form_kernel.dim:
        raise ValueError("kernel dimensions differ")
    needed = max((degree(v) for v in vectors if isinstance(v, tuple)), default=0)
    window = window_degree if window_degree is not None else max(base_degree + 2, needed)
    if needed > window:
        raise ValueError("test vector outside the window")
    if window > kernel.truncation:
        raise ValueError("model degree exceeds the kernel truncation")
    labels = enumerate_up_to_degree(kernel.dim, window)
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    exact = mode == "exact"
    if not exact:
        kernel, form_kernel = kernel.floats, form_kernel.floats
    b = reciprocal_complement(form_kernel)

    def entry(gamma):
        top = min(degree(gamma) - base_degree - 1, b.truncation)
        lowered = 0
        for alpha in itertools.product(*(range(g + 1) for g in gamma)):
            if 1 <= degree(alpha) <= top:
                lowered += b.coeff(alpha) * kernel.coeff(subtract(gamma, alpha))
        return 1 - lowered / kernel.coeff(gamma)

    values = []
    for v in vectors:
        if isinstance(v, tuple):
            if v not in labels:
                raise ValueError(f"test vector {v} outside the window")
            values.append(entry(v))
            continue
        vec = np.asarray(v, dtype=object if exact else None)
        if vec.shape != (len(labels),):
            raise ValueError("test vector has the wrong length for the window")
        num = den = 0
        for gamma, x in zip(labels, vec):
            if x != 0:
                w = x * x.conjugate() / (kernel.coeff(gamma) if exact else 1)
                num += w * entry(gamma)
                den += w
        if den == 0:
            raise ValueError("zero test vector")
        values.append(num / den)
    return values
