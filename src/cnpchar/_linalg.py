"""The scalar backend and the dense linear algebra built on it.

Every computation runs in one of two arithmetics, ``EXACT`` or ``FLOAT``
(:class:`Scalars`), and every choice that depends on which one is made here:
zeros and identities, square roots, how a monomial or an array enters the
arithmetic, and how points enter it: a stack of rational points stays
exact, any other is one complex128 array (:func:`point_stack`). The one
exception is a series' coefficients, which enter through
``multiindex.BlockSpace.lift`` in the arithmetic it is given. Float matrices
are numpy float/complex arrays in orthonormal bases. Exact matrices are
object arrays of ``fractions.Fraction`` (or int), optionally in an
orthogonal-but-not-normalized basis whose squared norms are carried
separately as ``weights``; adjoints then pick up the weight ratios. Exact
arrays support only the spectral steps that stay rational, on coordinate
matrices, which hold at most one nonzero entry in each row and column:
roots, range bases and pseudo-inverses of diagonal ones with perfect-square
entries, and complements of the range of any. Anything else raises
:class:`ExactnessError`, signalling that float arithmetic is the right
backend for that computation. Float spectral steps read a matrix's
structure once, as its nonzero entries (:class:`NonzeroEntries`), from
which the norm and the blocks of a sparse Gram follow.
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
    return a.astype(np.complex128 if holds_complex(a) else np.float64)


def holds_complex(a: np.ndarray) -> bool:
    """Whether an array has a complex entry: from its dtype, or scalar by scalar on an object array."""
    return a.dtype == complex or (a.dtype == object and any(isinstance(x, complex) for x in a.flat))


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


def nonzero_index(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """``np.nonzero(a)``, read from the flat pattern ``a != 0``, which numpy scans many times faster on a sparse array."""
    return np.unravel_index(np.flatnonzero(a != 0), a.shape)


@dataclass(frozen=True, eq=False)
class NonzeroEntries:
    """A matrix and its nonzero entries, read once: the row, column and value of each, in row-major order."""

    matrix: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, a: np.ndarray) -> "NonzeroEntries":
        rows, cols = nonzero_index(a)
        return cls(a, rows, cols, a[rows, cols])

    @property
    def adjoint(self) -> "NonzeroEntries":
        """The conjugate transpose, its entries read from these ones, in its column-major order."""
        return NonzeroEntries(self.matrix.conj().T, self.cols, self.rows, self.values.conj())


def sparse_product(a: NonzeroEntries, b: NonzeroEntries) -> np.ndarray:
    """The matrix product of ``a`` and ``b``, from the nonzero pairs of both factors when they are few.

    Every nonzero a[i, k] pairs with every nonzero b[k, j]. When there are at
    most as many pairs as entries in the (m, n) product, each pair's product
    is added at (i, j) in a fixed order (a's entries in turn, each with b's
    in row-major order) into zeros of the arithmetic, so the work is linear
    in the pairs and the output. Otherwise the result is
    ``a.matrix @ b.matrix`` unchanged. Fraction object arrays take the same
    path and give equal Fractions.
    """
    (m, inner), n = a.matrix.shape, b.matrix.shape[1]
    per_row = np.bincount(b.rows, minlength=inner)
    counts = per_row[a.cols]
    total = int(counts.sum())
    if total > m * n:
        return a.matrix @ b.matrix
    left = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right = np.argsort(b.rows, kind="stable")[(np.cumsum(per_row) - per_row)[a.cols[left]] + offsets]
    if is_exact_array(a.matrix) or is_exact_array(b.matrix):
        out = exact_zeros((m, n))
    else:
        out = np.zeros((m, n), dtype=np.result_type(a.matrix, b.matrix))
    np.add.at(out.reshape(-1), a.rows[left] * n + b.cols[right], a.values[left] * b.values[right])
    return out


def max_abs(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(to_float_array(a))))


def spectral_norm(a: np.ndarray) -> float:
    """The operator 2-norm of a matrix, or the largest over a stack of matrices.

    Each matrix takes max |eigenvalue| when it is exactly Hermitian, else its
    top singular value. A single square matrix is read once, as its nonzero
    entries: Hermitian when each equals the conjugate of its mirror. With
    nothing off the diagonal the norm is max |d_i|, no LAPACK call, bit for
    bit ``eigvalsh`` on 1 x 1 blocks (a NaN diagonal is not Hermitian).
    Otherwise each block size of :func:`connected_blocks` runs one batched
    ``eigvalsh``; one block gives ``eigvalsh``'s value bit for bit. A stack
    runs one batched ``eigvalsh`` over its Hermitian matrices and one
    batched ``svd`` over the others, passed as they are when of one kind.
    """
    if a.size == 0:
        return 0.0
    stack = to_float_array(a).reshape(-1, *a.shape[-2:])
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        entries = NonzeroEntries.of(stack[0])
        if not np.array_equal(entries.values, entries.matrix[entries.cols, entries.rows].conj()):
            return float(np.linalg.svd(stack, compute_uv=False).max())
        if np.array_equal(entries.rows, entries.cols):
            return float(np.abs(entries.values).max(initial=0.0))
        blocks = connected_blocks(entries)
        return max(float(np.abs(np.linalg.eigvalsh(_gather(entries.matrix, idx))).max()) for idx in blocks)
    herm = a.shape[-1] == a.shape[-2] and np.all(stack == stack.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.all(herm):
        return float(np.abs(np.linalg.eigvalsh(stack)).max())
    if not np.any(herm):
        return float(np.linalg.svd(stack, compute_uv=False).max())
    return max(
        float(np.abs(np.linalg.eigvalsh(stack[herm])).max()),
        float(np.linalg.svd(stack[~herm], compute_uv=False).max()),
    )


def connected_blocks(entries: NonzeroEntries) -> list[np.ndarray]:
    """The connected components of a square matrix's nonzero pattern, read from its entries, grouped by size.

    Indices i and j are linked when a[i, j] or a[j, i] is nonzero. Each entry
    of the list is a (count, size) integer array holding one component per
    row, indices ascending inside a row and rows ordered by their first
    index; the entries run by ascending size. Permuted to these blocks, the
    matrix is block-diagonal. The components come from label propagation
    over the (row, column) list: every index starts as its own label, each
    entry hooks the larger label of its two ends to the smaller
    (``np.minimum.at``), and pointer jumping takes each label to its root,
    until no entry joins two labels, O(nnz) per round. Each component ends
    labelled by its smallest index.
    """
    n = entries.matrix.shape[0]
    label, ends = np.arange(n), np.stack([entries.rows, entries.cols])
    while True:
        pair = label[ends]
        low, high = pair.min(axis=0), pair.max(axis=0)
        if np.array_equal(low, high):
            break
        np.minimum.at(label, high, low)
        while not np.array_equal(up := label[label], label):
            label = up
    sizes = np.bincount(label, minlength=n)
    members = np.argsort(label, kind="stable")
    firsts = np.cumsum(sizes) - sizes
    return [
        members[firsts[sizes == size][:, None] + np.arange(size)]
        for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1
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
    parts = [(idx, *np.linalg.eigh(_gather(a, idx))) for idx in connected_blocks(NonzeroEntries.of(a))]
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


def is_coordinate(a: np.ndarray) -> bool:
    """True when no row and no column of the nonzero pattern of ``a`` holds two entries."""
    rows, cols = nonzero_index(a)
    return bool(np.bincount(rows).max(initial=0) <= 1 and np.bincount(cols).max(initial=0) <= 1)


def minus_identity(a: np.ndarray) -> np.ndarray:
    """``a - eye`` bit for bit, with no identity formed: x - 0 is x for every float, signed zeros included."""
    out = a.copy()
    out[np.diag_indices_from(out)] -= 1
    return out


def frac_sqrt(x) -> Fraction:
    """Exact square root of a perfect-square rational; ExactnessError otherwise."""
    f = Fraction(x)
    if f < 0:
        raise ExactnessError(f"square root of negative rational {f}")
    pn, pd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if pn * pn != f.numerator or pd * pd != f.denominator:
        raise ExactnessError(f"{f} is not a perfect square")
    return Fraction(pn, pd)


def point_stack(points) -> tuple[np.ndarray, bool]:
    """(the points as one (P, d) array, single) of a (d,) point or a (P, d) stack of points.

    A stack comes out as one of two kinds. When every coordinate is a
    ``Fraction`` or an int it stays exact, as an object array; anything else
    (float64 or complex128 arrays, Python floats or complexes, rows of mixed
    dtypes) becomes one complex128 array, converted once, since a real point
    is a complex point with zero imaginary parts. A 2-D complex128 array
    comes back without a copy and rows of complex128 arrays are stacked. A
    single point becomes a flagged stack of one, an empty sequence a (0, 0)
    exact stack.
    """
    single = len(points) > 0 and np.ndim(points) == 1
    rows = [points] if single else points
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype != object:
        return rows.astype(complex, copy=False), single
    if len(rows) and all(getattr(row, "dtype", None) == complex for row in rows):
        return np.stack(rows), single
    if not all(isinstance(x, (Fraction, int)) for row in rows for x in row):
        return np.asarray(rows, dtype=complex), single
    out = np.empty((len(rows), len(rows[0]) if len(rows) else 0), dtype=object)
    out[...] = [list(row) for row in rows]
    return out, single


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
        out[np.diag_indices(n)] = Fraction(1)
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
        """The arithmetic at a point or a stack of points: exact only on an exact stack, read from its dtype."""
        return self if self.exact and point_stack(points)[0].dtype == object else FLOAT


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
        diag = a_sq.diagonal()
        if np.count_nonzero(a_sq) != np.count_nonzero(diag):
            raise ExactnessError("exact matrix roots need a diagonal matrix")
        n, pos = len(diag), np.flatnonzero(diag > 0)
        root, pinv = exact_zeros((n, n)), exact_zeros((n, n))
        root[pos, pos] = roots = EXACT.roots(diag[pos])
        pinv[pos, pos] = 1 / roots
        return PsdRoot(root, pinv, EXACT.eye(n)[:, pos], min(map(float, diag), default=math.inf))
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
    """Orthonormal basis (columns) of the orthogonal complement of Ran(a), rank cut at RANK_CUTOFF.

    An exact ``a`` must be a coordinate matrix; its complement is one unit column per zero row.
    """
    m = a.shape[0]
    if is_exact_array(a):
        if not is_coordinate(a):
            raise ExactnessError("exact complements need a coordinate matrix")
        return EXACT.eye(m)[:, np.bincount(nonzero_index(a)[0], minlength=m) == 0]
    if a.shape[1] == 0:
        return np.eye(m)
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > RANK_CUTOFF * max(1.0, s[0] if s.size else 0.0)))
    return u[:, rank:]


def polar_orthogonal(a: np.ndarray) -> np.ndarray:
    """The unitary factor of the polar decomposition (closest unitary to a)."""
    u, _, vh = np.linalg.svd(to_float_array(a))
    return u @ vh
