"""The scalar backend and the dense linear algebra built on it.

Every computation runs in one of two arithmetics, ``EXACT`` or ``FLOAT``
(:class:`Scalars`), and every choice that depends on which one is made here:
zeros and identities, square roots, how a monomial or an array enters the
arithmetic, and how points enter it: a stack of rational points stays exact,
any other is one complex128 array (:func:`point_stack`). The one exception
is a series' coefficients, which enter through
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
backend for that computation. Float spectral steps read a matrix's structure
once, as its entries (:class:`Entries`, row-major slots; a dense matrix is
passed as the array itself, whose bits its readers keep), from which the
norm and the blocks of a sparse Gram follow; block matrices of entries are
assembled with no sort (:func:`beside`, :func:`above`). An ordered sum of
terms at matrix positions (:func:`ordered_sum`), such as a product of sparse
factors (:func:`sparse_product`) or the multiplier Gram, chooses its own
form: slot entries, one slot per position that a term reaches, when the
matrix is large and the slots take less memory than the dense array, else
that array. Sums, ``minus_identity``, ``hermitian_part``, ``spectral_norm``
and ``block_eigh`` read those slots with the bits the dense matrix would
hold, and no dense array of the sum's size is formed. Every sum whose order
fixes its bits is one ordered scatter-add (:func:`scatter_add`), in parts
whose temporaries each caller bounds by its output's size; a product whose
every output is one term is formed entry by entry
(:func:`single_term_product`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
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


def _zeros(shape, dtype) -> np.ndarray:
    return exact_zeros(shape) if dtype == object else np.zeros(shape, dtype=dtype)


@dataclass(frozen=True, eq=False)
class Entries:
    """A matrix held as slots: the row, column and value of each, at most one per position, row-major.

    A slot's value may be a zero of either sign, while every position
    without a slot holds +0. ``of`` reads a formed matrix once, as its
    nonzero entries; a reader that needs the formed matrix's own bits, its
    zeros of either sign included, takes the array itself (``np.ndarray |
    Entries``). Sums of entries give, on every slot, the bits of the same
    sum of the dense matrices, and a sum with a dense array is that array's
    sum with ``matrix``. The adjoint lists the same entries in its
    column-major order and serves only as a factor.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    __array_ufunc__ = None  # an array plus entries is the entries' __radd__

    @classmethod
    def of(cls, a: "np.ndarray | Entries") -> "Entries":
        """The nonzero entries of a formed matrix; entries are themselves."""
        if isinstance(a, Entries):
            return a
        rows, cols = nonzero_index(a)
        return cls(a.shape, rows, cols, a[rows, cols])

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix: zeros of the entries' arithmetic with the values scattered in."""
        out = _zeros(self.shape, self.values.dtype)
        out[self.rows, self.cols] = self.values
        return out

    @property
    def adjoint(self) -> "Entries":
        """The conjugate transpose, its entries read from these ones, in its column-major order."""
        return Entries(self.shape[::-1], self.cols, self.rows, self.values.conj())

    def nonzero(self) -> "Entries":
        """The entries whose value is not zero: these entries themselves when none is."""
        keep = self.values != 0
        return self if keep.all() else Entries(self.shape, self.rows[keep], self.cols[keep], self.values[keep])

    def at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The values at these positions, found among the slots, 0 where there is none."""
        keys, wanted = self.rows * self.shape[1] + self.cols, rows * self.shape[1] + cols
        if not len(keys):
            return _zeros(wanted.shape, self.values.dtype)
        found = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
        return np.where(keys[found] == wanted, self.values[found], 0)

    def __add__(self, other: "Entries | np.ndarray") -> "Entries | np.ndarray":
        if isinstance(other, np.ndarray):
            return self.matrix + other
        (rows, cols), (at, other_at) = _slot_union(self.shape, (self.rows, self.cols), (other.rows, other.cols))
        values = _spread(self.values, at, len(rows)) + _spread(other.values, other_at, len(rows))
        return Entries(self.shape, rows, cols, values)

    __radd__ = __add__


def formed(a: np.ndarray | Entries) -> np.ndarray:
    """A dense matrix itself, or the matrix of entries."""
    return a if isinstance(a, np.ndarray) else a.matrix


def beside(lead: Entries, right: Entries) -> Entries:
    """The block row [lead, right] as row-major entries: in each row those of ``right`` follow those of ``lead``, no sort."""
    at = np.searchsorted(lead.rows, right.rows, side="right")
    values = lead.values.astype(np.result_type(lead.values, right.values), copy=False)
    rows, cols = np.insert(lead.rows, at, right.rows), np.insert(lead.cols, at, right.cols + lead.shape[1])
    return Entries((lead.shape[0], lead.shape[1] + right.shape[1]), rows, cols, np.insert(values, at, right.values))


def above(top: Entries, bottom: Entries) -> Entries:
    """The block column [top; bottom] as row-major entries: those of ``bottom``, offset by the rows of ``top``, follow."""
    parts = zip((top.rows, top.cols, top.values), (bottom.rows + top.shape[0], bottom.cols, bottom.values))
    return Entries((top.shape[0] + bottom.shape[0], top.shape[1]), *map(np.concatenate, parts))


def single_term_product(a: Entries, b: np.ndarray) -> np.ndarray | None:
    """``a @ b`` for a dense ``b`` when no row of ``a`` holds two entries and none is complex, else None.

    Each output is one real (or rational) entry times an entry of ``b``, or
    none, so any order of summation gives its value: it is added to zeros
    entry by entry, with no dense ``a``, and on a real ``b`` its zeros take
    the BLAS product's signs too. Several entries in a row, or a complex
    entry (itself a sum of two products, which BLAS may fuse), leave the
    bits to the caller's dense product.
    """
    m = a.shape[0]
    if np.iscomplexobj(a.values) or np.bincount(a.rows, minlength=m).max(initial=0) > 1:
        return None
    out = _zeros((m, b.shape[1]), np.result_type(a.values, b))
    out[a.rows] += a.values[:, None] * b[a.cols]
    return out


def _slot_union(shape, *positions) -> tuple[tuple[np.ndarray, np.ndarray], list[np.ndarray]]:
    """((rows, cols) of the union of several (rows, cols) position lists, row-major; where each list's positions sit in it)."""
    keys = np.concatenate([rows * shape[1] + cols for rows, cols in positions])
    slots, where = np.unique(keys, return_inverse=True)
    return np.divmod(slots, shape[1]), np.split(where, np.cumsum([len(rows) for rows, _ in positions])[:-1])


def _spread(values: np.ndarray, where: np.ndarray, count: int) -> np.ndarray:
    """``values`` placed at ``where`` in ``count`` slots of zeros of their arithmetic."""
    out = _zeros(count, values.dtype)
    out[where] = values
    return out


def hermitian_part(a: np.ndarray | Entries) -> np.ndarray | Entries:
    """(a + a*) / 2 of a square matrix, dense or as entries: the same bits on every position.

    Entries give slots on the union of their positions and their mirrors;
    an absent mirror enters as the conjugate of +0, as it does densely.
    """
    if isinstance(a, np.ndarray):
        return (a + a.conj().T) / 2
    (rows, cols), (at, mirror_at) = _slot_union(a.shape, (a.rows, a.cols), (a.cols, a.rows))
    mirror = _zeros(len(rows), a.values.dtype).conj()
    mirror[mirror_at] = a.values.conj()
    return Entries(a.shape, rows, cols, (_spread(a.values, at, len(rows)) + mirror) / 2)


def scatter_add(out: np.ndarray, slots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out`` after ``for s, v in zip(slots, values): out[s] += v``, in place, bit for bit but a NaN's sign.

    One ``np.add.at`` (numpy's fast path) over the flat positions of the rows of the C-contiguous
    ``out``, ``Fraction`` object arrays included; calls in turn continue the order, so callers pass parts.
    """
    if not out.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous output")
    width, slots = math.prod(out.shape[1:]), np.asarray(slots, dtype=np.intp)
    positions = slots if width == 1 else (slots[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(out.reshape(-1), positions, np.reshape(values, -1))
    return out


# an ordered sum takes slots only when its (m, n) array has at least SLOT_POSITIONS positions: below
# that the dense array costs less time than the slot bookkeeping, measured on Grams of about one key a row
SLOT_POSITIONS = 2**15


def ordered_sum(
    shape, dtype, sizes, keys: Callable[[int], np.ndarray], terms: Callable[[int], np.ndarray]
) -> np.ndarray | Entries:
    """The (m, n) sum of terms at flat positions, given in parts, from zeros of ``dtype``: one ``scatter_add`` a part.

    Part i, one of ``len(sizes)`` (at least one), has ``sizes[i]`` terms;
    ``keys(i)`` gives their flat positions and ``terms(i)`` their values, so
    every position gets its terms in list order, part after part. The sum
    chooses its form from these sizes. It is ``Entries`` holding slots, one
    per position that some key reaches, when the (m, n) array has at least
    ``SLOT_POSITIONS`` positions and the keys take less memory than it: a
    key costs 16 bytes, its position and its slot, against the itemsize of
    ``dtype`` for each position. Every part's keys are then formed before
    the first part's terms. Otherwise it is the dense (m, n) array, and no
    key is kept past its part. Both hold the same bits on every position,
    and at most one part of terms is held at a time.
    """
    m, n = shape
    if m * n < SLOT_POSITIONS or 16 * int(np.sum(sizes)) >= np.dtype(dtype).itemsize * m * n:
        out = _zeros(m * n, dtype)
        for i in range(len(sizes)):
            scatter_add(out, keys(i), terms(i))
        return out.reshape(m, n)
    reached, where = np.unique(np.concatenate([keys(i) for i in range(len(sizes))]), return_inverse=True)
    out = _zeros(len(reached), dtype)
    for i, at in enumerate(np.split(where, np.cumsum(sizes)[:-1])):
        scatter_add(out, at, terms(i))
    return Entries(shape, reached // n, reached % n, out)


def sparse_product(a: np.ndarray | Entries, b: np.ndarray | Entries) -> np.ndarray | Entries:
    """The matrix product of ``a`` and ``b``, dense arrays or entries, from the entry pairs of both when they are few.

    Every nonzero entry a[i, k] pairs with every nonzero entry b[k, j]. When
    there are more pairs than positions in the (m, n) product, it is ``a @
    b``, of a dense factor itself and of entries' ``matrix``. Otherwise
    :func:`ordered_sum` adds each pair's product, in a fixed order (a's
    entries in turn, each with b's in row-major order), into zeros of the
    arithmetic, so the work is linear in the pairs, and chooses the form: a
    dense (m, n) array, or ``Entries`` with a slot for each position that a
    pair reaches. Both hold the same bits on every position. Fraction
    object arrays take the same paths and give equal Fractions.
    """
    (m, inner), n = a.shape, b.shape[1]
    ea, eb = Entries.of(a), Entries.of(b)
    per_row = np.bincount(eb.rows, minlength=inner)
    counts = per_row[ea.cols]
    total = int(counts.sum())
    if total > m * n:
        return formed(a) @ formed(b)
    left = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right = np.argsort(eb.rows, kind="stable")[(np.cumsum(per_row) - per_row)[ea.cols[left]] + offsets]
    return ordered_sum(
        (m, n),
        np.result_type(ea.values, eb.values),
        [total],
        lambda _: ea.rows[left] * n + eb.cols[right],
        lambda _: ea.values[left] * eb.values[right],
    )


def max_abs(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(to_float_array(a))))


def spectral_norm(a: np.ndarray | Entries) -> float:
    """The operator 2-norm of a matrix, or the largest over a stack of matrices.

    Each matrix takes max |eigenvalue| when it is exactly Hermitian, else its
    top singular value; an all-zero input of any shape is 0.0 with no LAPACK
    call. A single square matrix is read as entries: a dense one once, as
    its nonzero entries, slot entries (``Entries``) as they are, with no
    dense matrix formed unless the ``svd`` needs it. It is Hermitian when
    each nonzero entry equals the conjugate of its mirror, an absent mirror
    counting as 0. With nothing off the diagonal the norm is max |d_i|, no
    LAPACK call, bit for bit ``eigvalsh`` on 1 x 1 blocks (a NaN is not
    Hermitian). Otherwise each block size of :func:`connected_blocks` runs
    one batched ``eigvalsh`` on blocks gathered with their zeros of either
    sign; one block gives ``eigvalsh``'s value bit for bit. Slot entries thus
    give the bits of the matrix they stand for. A stack runs one batched
    ``eigvalsh`` over its Hermitian matrices and one batched ``svd`` over the
    others, passed as they are when of one kind.
    """
    if isinstance(a, Entries):
        return _square_norm(Entries(a.shape, a.rows, a.cols, to_float_array(a.values)))
    if a.size == 0:
        return 0.0
    stack = to_float_array(a).reshape(-1, *a.shape[-2:])
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        return _square_norm(stack[0])
    if not stack.any():
        return 0.0
    herm = a.shape[-1] == a.shape[-2] and np.all(stack == stack.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.all(herm):
        return float(np.abs(np.linalg.eigvalsh(stack)).max())
    if not np.any(herm):
        return float(np.linalg.svd(stack, compute_uv=False).max())
    return max(
        float(np.abs(np.linalg.eigvalsh(stack[herm])).max()),
        float(np.linalg.svd(stack[~herm], compute_uv=False).max()),
    )


def _square_norm(a: np.ndarray | Entries) -> float:
    """``spectral_norm`` of a square float matrix, dense or as row-major entries."""
    dense = isinstance(a, np.ndarray)
    nonzero = Entries.of(a) if dense else a.nonzero()
    if not np.array_equal(nonzero.values, (a[nonzero.cols, nonzero.rows] if dense else a.at(nonzero.cols, nonzero.rows)).conj()):
        return float(np.linalg.svd(formed(a)[None], compute_uv=False).max())
    if np.array_equal(nonzero.rows, nonzero.cols):
        return float(np.abs(nonzero.values).max(initial=0.0))
    return max(float(np.abs(np.linalg.eigvalsh(_gather(a, idx))).max()) for idx in connected_blocks(nonzero))


def connected_blocks(entries: Entries) -> list[np.ndarray]:
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
    n = entries.shape[0]
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


def _gather(a: np.ndarray | Entries, idx: np.ndarray) -> np.ndarray:
    """The (count, size, size) stack of the diagonal blocks on the rows of ``idx``: of a dense ``a``, or from each slot inside a block."""
    if isinstance(a, np.ndarray):
        return a[idx[:, :, None], idx[:, None, :]]
    count, size = idx.shape
    block, place = np.full(a.shape[0], -1), np.zeros(a.shape[0], dtype=int)
    block[idx], place[idx] = np.arange(count)[:, None], np.arange(size)
    rows, cols = a.rows, a.cols
    inside = (block[rows] >= 0) & (block[rows] == block[cols])
    out = np.zeros((count, size, size), dtype=a.values.dtype)
    out[block[rows[inside]], place[rows[inside]], place[cols[inside]]] = a.values[inside]
    return out


def block_eigh(a: np.ndarray | Entries, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of a Hermitian float matrix, ascending, and the eigenvectors of those at or above ``floor``.

    The matrix is dense or given as entries (``Entries``); one batched
    ``eigh`` runs per block size of :func:`connected_blocks`, on blocks
    gathered with their zeros of either sign. The kept eigenvectors are the
    columns of an (n, kept) array, zero off their blocks, in the order of
    their eigenvalues: the columns at or above ``floor`` of ``np.linalg.eigh``
    of the matrix, with no n x n array formed.
    """
    entries = Entries.of(a)
    n = entries.shape[0]
    parts = [(idx, *np.linalg.eigh(_gather(a, idx))) for idx in connected_blocks(entries.nonzero())]
    vals = np.concatenate([w.ravel() for _, w, _ in parts]) if parts else np.zeros(0)
    order = np.argsort(vals, kind="stable")
    kept = order[vals[order] >= floor]
    column = np.full(n, -1)
    column[kept] = np.arange(len(kept))
    # Fortran order, as a column selection of the n x n eigenvectors was: products with it keep their bits
    vecs = np.zeros((n, len(kept)), dtype=np.result_type(entries.values.dtype, float), order="F")
    start = 0
    for idx, _, v in parts:
        at = column[start:start + idx.size].reshape(idx.shape)
        block, k = np.nonzero(at >= 0)
        vecs[idx[block], at[block, k][:, None]] = v[block, :, k]
        start += idx.size
    return vals[order], vecs


def is_exactly_zero(a: np.ndarray) -> bool:
    return all(x == 0 for x in a.flat)


def is_coordinate(a: np.ndarray) -> bool:
    """True when no row and no column of the nonzero pattern of ``a`` holds two entries."""
    rows, cols = nonzero_index(a)
    return bool(np.bincount(rows).max(initial=0) <= 1 and np.bincount(cols).max(initial=0) <= 1)


def minus_identity(a: np.ndarray | Entries) -> np.ndarray | Entries:
    """``a - eye`` bit for bit, with no identity formed: x - 0 is x for every float, signed zeros included.

    Entries stay entries, as slots, with one on every diagonal position.
    """
    if isinstance(a, Entries):
        diagonal = np.arange(a.shape[0])
        (rows, cols), (at, on) = _slot_union(a.shape, (a.rows, a.cols), (diagonal, diagonal))
        values = _spread(a.values, at, len(rows))
        values[on] -= 1
        return Entries(a.shape, rows, cols, values)
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
    vals, vecs = np.linalg.eigh(hermitian_part(a_sq))
    keep = vals > RANK_CUTOFF * max(1.0, float(vals.max(initial=0.0)))
    roots = np.where(keep, np.sqrt(np.clip(vals, 0.0, None)), 0.0)
    inv = np.where(keep, 1.0 / np.where(roots == 0, 1.0, roots), 0.0)
    root = (vecs * roots) @ vecs.conj().T
    pinv = (vecs * inv) @ vecs.conj().T
    return PsdRoot(root, pinv, vecs[:, keep], float(vals.min(initial=math.inf)))


def min_eigenvalue(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(to_float_array(a))).min())


def range_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of a float matrix, as columns.

    Uses the singular value cutoff RANK_CUTOFF relative to max(1, largest singular value).
    """
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :_rank(s)]


def _rank(s: np.ndarray) -> int:
    """How many of the descending singular values ``s`` exceed RANK_CUTOFF * max(1, the largest)."""
    return int(np.sum(s > RANK_CUTOFF * max(1.0, s[0] if s.size else 0.0)))


def range_complement(a: np.ndarray) -> Entries:
    """Orthonormal basis (columns) of the orthogonal complement of Ran(a), rank cut at RANK_CUTOFF, as entries.

    Unit columns are a 1 in a's arithmetic each, with no m x m array
    formed. An exact ``a`` must be a coordinate matrix; its complement is
    one unit column per zero row. A float ``a`` with no columns has every
    e_i; one of rank k = min(m, its columns) whose nonzero rows are its
    first k has e_k ... e_{m-1}, with no m x m SVD: they are the trailing
    columns of LAPACK's full U there. (With more columns than nonzero rows,
    LAPACK may rotate some of them among themselves.) Any other ``a`` takes
    its complement from that SVD, read by ``Entries.of``.
    """
    m = a.shape[0]
    if is_exact_array(a):
        if not is_coordinate(a):
            raise ExactnessError("exact complements need a coordinate matrix")
        rows, one = np.flatnonzero(np.bincount(nonzero_index(a)[0], minlength=m) == 0), Fraction(1)
    elif a.shape[1] == 0:
        rows, one = np.arange(m), np.float64(1)
    else:
        live = (a != 0).any(axis=1)
        k = int(np.count_nonzero(live))
        if not (k == min(a.shape) and live[:k].all() and _rank(np.linalg.svd(a[:k], compute_uv=False)) == k):
            u, s, _ = np.linalg.svd(a, full_matrices=True)
            return Entries.of(u[:, _rank(s):])
        rows, one = np.arange(k, m), np.result_type(a.dtype, float).type(1)
    values = np.full(len(rows), one, dtype=object if isinstance(one, Fraction) else one.dtype)
    return Entries((m, len(rows)), rows, np.arange(len(rows)), values)


def polar_orthogonal(a: np.ndarray) -> np.ndarray:
    """The unitary factor of the polar decomposition (closest unitary to a)."""
    u, _, vh = np.linalg.svd(to_float_array(a))
    return u @ vh
