"""The scalar backend and the dense linear algebra built on it.

Every computation runs in one of two arithmetics, ``EXACT`` or ``FLOAT``
(:class:`Scalars`), and every choice that depends on which one is made here:
zeros and identities, square roots, how a monomial or an array enters the
arithmetic, and whether an evaluation point keeps exactness. The one
exception is a series' coefficients, which enter through
``multiindex.BlockSpace.lift`` in the arithmetic it is given. Float matrices
are numpy float/complex arrays in orthonormal bases. Exact matrices are
object arrays of ``fractions.Fraction`` (or int), optionally in an
orthogonal-but-not-normalized basis whose squared norms are carried
separately as ``weights``; adjoints then pick up the weight ratios. Exact
arrays support only the spectral operations that stay rational, namely
square roots, ranges and pseudo-inverses of diagonal matrices with
perfect-square entries. Anything else raises :class:`ExactnessError`,
signalling that float arithmetic is the right backend for that computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# singular values and eigenvalues at or below RANK_CUTOFF * max(1, largest) count as zeros
RANK_CUTOFF = 1e-10


class ExactnessError(ArithmeticError):
    """An operation cannot be carried out in exact rational arithmetic."""


def is_exact_array(a: np.ndarray) -> bool:
    return a.dtype == object


def exact_zeros(shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = Fraction(0)
    return out


def to_float_array(a: np.ndarray) -> np.ndarray:
    if not is_exact_array(a):
        return a
    return a.astype(np.float64) if _exact_is_real(a) else a.astype(np.complex128)


def _exact_is_real(a: np.ndarray) -> bool:
    return all(not isinstance(x, complex) for x in a.flat)


def adjoint(a: np.ndarray, weights=None) -> np.ndarray:
    """Adjoint of the operator with matrix ``a``, or of each in a stack, on a basis with squared norms ``weights``.

    weights None means orthonormal basis (plain conjugate transpose).
    Otherwise [a*]_{ij} = (w_j / w_i) conj(a_{ji}).
    """
    at = a.conj().swapaxes(-1, -2)
    if weights is None:
        return at
    w = np.asarray(weights, dtype=object if is_exact_array(a) else None)
    return at * (w[None, :] / w[:, None])


def complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with real part ``re`` and imaginary part ``im``, exactly.

    For complex products written in real arithmetic, which round like
    numpy's scalar complex product; its array product rounds differently.
    """
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def max_abs(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(to_float_array(a))))


def spectral_norm(a: np.ndarray) -> float:
    """The operator 2-norm of a matrix, or the largest over a stack of matrices.

    Each matrix takes max |eigenvalue| when it is exactly Hermitian, else its
    top singular value. A single Hermitian matrix is split into the connected
    blocks of its nonzero pattern (:func:`connected_blocks`) and runs one
    batched ``eigvalsh`` per block size; a diagonal matrix is the case of
    blocks of size 1, and a matrix of one block gives ``eigvalsh``'s value
    bit for bit. A stack runs one batched ``eigvalsh`` over its Hermitian
    matrices and one batched ``svd`` over the others; a stack of one kind is
    passed to LAPACK as it is, without a copy.
    """
    if a.size == 0:
        return 0.0
    stack = to_float_array(a).reshape(-1, *a.shape[-2:])
    herm = a.shape[-1] == a.shape[-2] and np.all(stack == stack.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.all(herm) and a.ndim == 2:
        matrix = stack[0]
        return max(float(np.abs(np.linalg.eigvalsh(_gather(matrix, idx))).max()) for idx in connected_blocks(matrix))
    if np.all(herm):
        return float(np.abs(np.linalg.eigvalsh(stack)).max())
    if not np.any(herm):
        return float(np.linalg.svd(stack, compute_uv=False).max())
    return max(
        float(np.abs(np.linalg.eigvalsh(stack[herm])).max()),
        float(np.linalg.svd(stack[~herm], compute_uv=False).max()),
    )


def connected_blocks(a: np.ndarray) -> list[np.ndarray]:
    """The connected components of a square matrix's nonzero pattern, grouped by size.

    Indices i and j are linked when a[i, j] or a[j, i] is nonzero. Each entry
    of the list is a (count, size) integer array holding one component per
    row, indices ascending inside a row and rows ordered by their first
    index; the entries run by ascending size. Permuted to these blocks, the
    matrix is block-diagonal. Found by label propagation on a boolean copy
    of the pattern: every index hooks to its smallest linked index, pointer
    jumping takes each to the root of its tree, and the trees are contracted
    to one index each until no two are linked, O(log n) rounds.
    """
    n = a.shape[0]
    linked = a != 0
    linked |= linked.T
    np.fill_diagonal(linked, True)
    label = np.arange(n)
    while linked.size:
        parent = np.argmax(linked, axis=1)  # the smallest linked index, at most the index itself
        while not np.array_equal(up := parent[parent], parent):
            parent = up
        root = parent == np.arange(len(parent))
        if root.all():
            break
        group = (np.cumsum(root) - 1)[parent]  # trees numbered in the order of their roots
        label = group[label]
        order = np.argsort(group, kind="stable")
        starts = np.searchsorted(group[order], np.arange(np.count_nonzero(root)))
        linked = np.logical_or.reduceat(linked[order], starts, axis=0)
        linked = np.logical_or.reduceat(linked[:, order], starts, axis=1)
    sizes = np.bincount(label)
    members = np.argsort(label, kind="stable")
    firsts = np.cumsum(sizes) - sizes
    return [
        members[firsts[sizes == size][:, None] + np.arange(size)]
        for size in np.flatnonzero(np.bincount(sizes))
    ]


def _gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (count, size, size) stack of the diagonal blocks of ``a`` on the rows of ``idx``."""
    return a[idx[:, :, None], idx[:, None, :]]


def block_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a Hermitian float matrix, one batched ``eigh`` per block size.

    The blocks are those of :func:`connected_blocks`. The eigenvalues come
    out in ascending order, and each eigenvector is scattered back into its
    column of an n x n array, zero off its block.
    """
    n = a.shape[0]
    parts = [(idx, *np.linalg.eigh(_gather(a, idx))) for idx in connected_blocks(a)]
    vals = np.concatenate([w.ravel() for _, w, _ in parts]) if parts else np.zeros(0)
    order = np.argsort(vals, kind="stable")
    column = np.empty(n, dtype=int)
    column[order] = np.arange(n)
    vecs = np.zeros((n, n), dtype=np.result_type(a.dtype, float))
    start = 0
    for idx, _, v in parts:
        vecs[idx[:, :, None], column[start:start + idx.size].reshape(idx.shape)[:, None, :]] = v
        start += idx.size
    return vals[order], vecs


def is_exactly_zero(a: np.ndarray) -> bool:
    return all(x == 0 for x in a.flat)


def is_diagonal(a: np.ndarray) -> bool:
    if a.shape[0] != a.shape[1]:
        return False
    rows, cols = np.nonzero(a)
    return bool(np.array_equal(rows, cols))


def frac_sqrt(x) -> Fraction:
    """Exact square root of a perfect-square rational; ExactnessError otherwise."""
    f = Fraction(x)
    if f < 0:
        raise ExactnessError(f"square root of negative rational {f}")
    pn, pd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if pn * pn != f.numerator or pd * pd != f.denominator:
        raise ExactnessError(f"{f} is not a perfect square")
    return Fraction(pn, pd)


def point_stack(points) -> tuple[list, bool]:
    """(the points, single) of a (d,) point or a (P, d) stack of points.

    A single point becomes a stack of one and is flagged, so callers can
    return its (unstacked) result; an empty sequence is an empty stack.
    Coordinates keep their scalar types.
    """
    single = len(points) > 0 and np.ndim(points) == 1
    return ([points] if single else list(points)), single


@dataclass(frozen=True)
class Scalars:
    """One arithmetic: exact rationals or floats. Use the instances EXACT and FLOAT."""

    exact: bool

    def zeros(self, shape, dtype=float) -> np.ndarray:
        """Zeros of ``shape``; ``dtype`` applies to floats only."""
        return exact_zeros(shape) if self.exact else np.zeros(shape, dtype=dtype)

    def eye(self, n: int, dtype=float) -> np.ndarray:
        """The n x n identity; ``dtype`` applies to floats only."""
        if not self.exact:
            return np.eye(n, dtype=dtype)
        out = exact_zeros((n, n))
        for i in range(n):
            out[i, i] = Fraction(1)
        return out

    def sqrt(self, x):
        """Square root; exact only for perfect-square rationals (else ExactnessError)."""
        return frac_sqrt(x) if self.exact else math.sqrt(float(x))

    def roots(self, a: np.ndarray) -> np.ndarray:
        """Entrywise ``sqrt`` of an array."""
        if self.exact:
            return np.array([frac_sqrt(x) for x in a.flat], dtype=object).reshape(a.shape)
        return np.sqrt(a)

    def monomial(self, c):
        """A possibly complex scalar or array, such as monomials at a point, in this arithmetic."""
        return c if self.exact else np.asarray(c, dtype=complex)

    def array(self, a) -> np.ndarray:
        """An array in this arithmetic: unchanged when exact, its float view otherwise."""
        return a if self.exact else to_float_array(np.asarray(a))

    def at(self, points) -> "Scalars":
        """The arithmetic at a point or a stack of points: exact only if every coordinate is rational."""
        if self.exact and all(isinstance(p, (Fraction, int)) for pt in point_stack(points)[0] for p in pt):
            return self
        return FLOAT


EXACT = Scalars(True)
FLOAT = Scalars(False)


@dataclass(frozen=True)
class PsdRoot:
    """Root, pseudo-inverse root and range basis of one PSD matrix, from one decomposition."""

    root: np.ndarray
    pinv: np.ndarray
    basis: np.ndarray
    min_eigenvalue: float


def psd_root(a_sq: np.ndarray) -> PsdRoot:
    """The spectral data of a positive semidefinite Hermitian matrix ``a_sq``.

    Float mode takes one eigendecomposition of the symmetrized matrix;
    eigenvalues at or below ``RANK_CUTOFF * max(1, largest)`` are treated as
    exact zeros, so the root and its pseudo-inverse never amplify rounding
    dust, and the range basis holds the eigenvectors of the kept eigenvalues
    in ascending order. Exact mode is limited to diagonal matrices with
    perfect-square entries; the range basis is then a coordinate selection.
    The minimum eigenvalue is reported unclipped, so callers decide
    positivity; non-positive eigenvalues contribute nothing to the root.
    """
    if is_exact_array(a_sq):
        if not is_diagonal(a_sq):
            raise ExactnessError("exact matrix roots need a diagonal matrix")
        n = a_sq.shape[0]
        root = exact_zeros((n, n))
        pinv = exact_zeros((n, n))
        cols = [i for i in range(n) if a_sq[i, i] > 0]
        basis = exact_zeros((n, len(cols)))
        for j, i in enumerate(cols):
            r = frac_sqrt(a_sq[i, i])
            root[i, i] = r
            pinv[i, i] = 1 / r
            basis[i, j] = Fraction(1)
        lo = min((float(a_sq[i, i]) for i in range(n)), default=math.inf)
        return PsdRoot(root, pinv, basis, lo)
    sym = (a_sq + a_sq.conj().T) / 2
    vals, vecs = np.linalg.eigh(sym)
    keep = vals > RANK_CUTOFF * max(1.0, float(vals.max(initial=0.0)))
    roots = np.where(keep, np.sqrt(np.clip(vals, 0.0, None)), 0.0)
    inv = np.where(keep, 1.0 / np.where(roots == 0, 1.0, roots), 0.0)
    root = (vecs * roots) @ vecs.conj().T
    pinv = (vecs * inv) @ vecs.conj().T
    return PsdRoot(root, pinv, vecs[:, keep], float(vals.min(initial=math.inf)))


def min_eigenvalue(a: np.ndarray) -> float:
    sym = to_float_array(a)
    sym = (sym + sym.conj().T) / 2
    return float(np.linalg.eigvalsh(sym).min())


def range_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of a float matrix, as columns.

    Uses the singular value cutoff RANK_CUTOFF relative to max(1, largest singular value).
    """
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > RANK_CUTOFF * max(1.0, s[0] if s.size else 0.0)))
    return u[:, :rank]


def orth_complement_of_range(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of Ran(a), rank cut at RANK_CUTOFF."""
    m = a.shape[0]
    if is_exact_array(a):
        rank = exact_rank(a)
        if rank == m:
            return exact_zeros((m, 0))
        if is_diagonal_rectangular(a):
            rows = np.setdiff1d(np.arange(m), np.nonzero(a)[0])
            out = exact_zeros((m, len(rows)))
            for j, i in enumerate(rows):
                out[i, j] = Fraction(1)
            return out
        raise ExactnessError("exact complement needs full rank or diagonal structure")
    if a.shape[1] == 0:
        return np.eye(m)
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > RANK_CUTOFF * max(1.0, s[0] if s.size else 0.0)))
    return u[:, rank:]


def is_diagonal_rectangular(a: np.ndarray) -> bool:
    """True when every row has at most one nonzero entry and columns don't collide."""
    rows, cols = np.nonzero(a)
    return len(np.unique(rows)) == len(rows) and len(np.unique(cols)) == len(cols)


def exact_rank(a: np.ndarray) -> int:
    """Rank over the rationals, by Gaussian elimination."""
    rows = [list(r) for r in a.tolist()]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    col = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, m):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def polar_orthogonal(a: np.ndarray) -> np.ndarray:
    """The unitary factor of the polar decomposition (closest unitary to a)."""
    u, _, vh = np.linalg.svd(to_float_array(a))
    return u @ vh
