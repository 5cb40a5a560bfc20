"""Multi-index combinatorics over Z^d_+.

Multi-indices are plain tuples of non-negative integers. Everything in the
package enumerates them in graded order: by total degree first and, within a
degree, with the leading exponents largest first, so (1,0) precedes (0,1).
This makes every degree-raising operator matrix block-lower-triangular.
``BlockSpace.lift`` is the one way a series' coefficients enter a
computation over labels, with one float definition: the float view's lift.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Sequence

import numpy as np

from ._linalg import FLOAT, Scalars, complex_array, point_stack

MultiIndex = tuple[int, ...]


def degree(alpha: MultiIndex) -> int:
    return sum(alpha)


def compositions(total: int, parts: int) -> Iterator[MultiIndex]:
    """All multi-indices of the given total degree, leading entry largest first."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_up_to_degree(dim: int, max_degree: int) -> list[MultiIndex]:
    """All alpha in Z^dim_+ with |alpha| <= max_degree, in graded order."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    out: list[MultiIndex] = []
    for n in range(max_degree + 1):
        out.extend(compositions(n, dim))
    return out


def count_up_to_degree(dim: int, max_degree: int) -> int:
    return math.comb(max_degree + dim, dim)


def multinomial(alpha: MultiIndex) -> int:
    """|alpha|! / (alpha_1! ... alpha_d!), exactly.

    Computed as a product of binomials of partial sums so intermediate values
    stay integral.
    """
    out = 1
    partial = 0
    for a in alpha:
        if a < 0:
            raise ValueError(f"negative entry in multi-index {alpha}")
        partial += a
        out *= math.comb(partial, a)
    return out


def add(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    if len(alpha) != len(beta):
        raise ValueError(f"dimension mismatch: {len(alpha)} vs {len(beta)}")
    return tuple(a + b for a, b in zip(alpha, beta))


def unit(dim: int, i: int) -> MultiIndex:
    """The i-th coordinate multi-index e_i."""
    return tuple(1 if j == i else 0 for j in range(dim))


def monomial_value(point, alpha: MultiIndex):
    """point**alpha = prod point_i^alpha_i for a d-tuple of scalars."""
    out = 1
    for p, a in zip(point, alpha):
        out = out * p**a
    return out


def _column_powers(column: np.ndarray, top: int) -> np.ndarray:
    """The powers p**k, k = 0..top, of every p in one column of a point stack: shape (len(column), top + 1).

    ``np.power``: on a complex128 column what its scalar ``**`` runs, on an
    exact column each scalar's own ``**``.
    """
    return np.power(column.reshape(len(column), 1), np.arange(top + 1))


class BlockSpace:
    """A direct sum of identical blocks of size ``block_dim``, one per multi-index label.

    Coordinates are grouped by label in the order given; ``block(label)`` is
    the slice of that label's coordinates. ``degrees``, ``lift`` and
    ``monomials`` give |label|, a series' lifted coefficients and a point's
    monomials for all labels at once, in label order. The label tables
    (``index``, ``degrees``, ``exponents``, the multinomials, the sorted keys
    of ``positions``) are built once, read-only; a space built over another
    one, such as ``graded_space``, shares them.
    """

    def __init__(self, labels: Sequence[MultiIndex] | BlockSpace, block_dim: int):
        if isinstance(labels, BlockSpace):
            self.__dict__.update(labels.__dict__)
        else:
            self.labels = tuple(labels)
            self.index = {lab: i for i, lab in enumerate(self.labels)}
            self.degrees = np.array([degree(lab) for lab in self.labels], dtype=int)
            self.degrees.setflags(write=False)
        self.block_dim = block_dim
        self.dim = len(self.labels) * block_dim

    @functools.cached_property
    def exponents(self) -> np.ndarray:
        """The labels as one read-only (L, d) integer array, (0, 0) when there are none."""
        out = np.array(self.labels, dtype=int).reshape(len(self.labels), len(self.labels[0]) if self.labels else 0)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def _multinomials(self) -> np.ndarray:
        """``multinomial`` of every label, as exact ints: |label|! // prod label_i!."""
        factorials = np.array([math.factorial(k) for k in range(self.degrees.max(initial=0) + 1)], dtype=object)
        return factorials[self.degrees] // factorials[self.exponents].prod(axis=1)

    @functools.cached_property
    def _keys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(the largest exponent + 1 of each coordinate, the labels' ravelled keys ascending, the label of each key)."""
        dims = self.exponents.max(axis=0) + 1
        keys = np.ravel_multi_index(self.exponents.T, dims)
        order = np.argsort(keys)
        return dims, keys[order], order

    def block(self, label: MultiIndex) -> slice:
        i = self.index[label]
        return slice(i * self.block_dim, (i + 1) * self.block_dim)

    def positions(self, exponents: np.ndarray) -> np.ndarray:
        """The label index of each row of an (n, d) integer array of exponents, or -1 for a row that is not a label."""
        if not self.labels:
            return np.full(len(exponents), -1)
        dims, keys, order = self._keys
        wanted = np.ravel_multi_index(exponents.T, dims, mode="clip")
        at = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
        found = (keys[at] == wanted) & np.all((exponents >= 0) & (exponents < dims), axis=1)
        return np.where(found, order[at], -1)

    def shift(self, alpha: MultiIndex) -> tuple[np.ndarray, np.ndarray]:
        """(low, high): the index of each label gamma whose gamma + alpha is a label, in order, and of gamma + alpha."""
        high = self.positions(self.exponents.reshape(-1, len(alpha)) + alpha)
        low = np.flatnonzero(high >= 0)
        return low, high[low]

    def lift(self, series, scalars: Scalars = FLOAT) -> np.ndarray:
        """The lifts c_gamma = c_|gamma| * multinomial(gamma) of ``series``, in label order.

        Under EXACT ``series.coeff(gamma)``, type included; under FLOAT the
        float view's lift, ``series.floats.coeff(gamma)`` bit for bit.
        ValueError for labels of another dimension or beyond the truncation.
        """
        if self.labels and len(self.labels[0]) != series.dim:
            raise ValueError(f"multi-index dimension {len(self.labels[0])} != {series.dim}")
        if self.degrees.max(initial=0) > series.truncation:
            raise ValueError(f"degree {self.degrees.max()} beyond truncation {series.truncation}")
        if scalars.exact:
            return np.array(series.coefficients, dtype=object)[self.degrees] * self._multinomials
        return np.array(series.floats.coefficients)[self.degrees] * self._multinomials.astype(float)

    def monomials(self, points) -> np.ndarray:
        """point^gamma for every label, at a (d,) point or a (P, d) stack: shape (L,) or (P, L).

        An object array when the stack is exact (rational, see
        ``point_stack``), else complex, equal entry by entry to
        ``monomial_value`` at the complex128 view of the point. Each coordinate's
        powers come from its column (``_column_powers``). The products over
        coordinates run in real arithmetic (see ``complex_array``), in place,
        on contiguous gathers of each column's real and imaginary powers.
        """
        pts, single = point_stack(points)
        count, size, exps = len(pts), len(self.labels), self.exponents.T
        pts = pts.reshape(count, -1 if count else len(exps))
        if pts.dtype == object:
            out = np.ones((count, size), dtype=int).astype(object)
            for j, e in enumerate(exps):
                out = out * _column_powers(pts[:, j], int(e.max(initial=0)))[:, e]
            return out[0] if single else out
        re, im = np.ones((count, size)), np.zeros((count, size))
        t = np.empty((count, size))
        for j, e in enumerate(exps):
            powers = _column_powers(pts[:, j], int(e.max(initial=0)))
            xr, xi = powers.real[:, e], powers.imag[:, e]
            np.multiply(re, xi, out=t)
            xi *= im
            re *= xr
            re -= xi
            im *= xr
            im += t  # im * x.real + re * x.imag: one addition, either order
        out = complex_array(re, im)
        return out[0] if single else out


@functools.cache
def graded_space(dim: int, max_degree: int) -> BlockSpace:
    """The space of ``enumerate_up_to_degree(dim, max_degree)`` in blocks of size 1, built once with every table filled."""
    space = BlockSpace(enumerate_up_to_degree(dim, max_degree), 1)
    for table in (space._multinomials, *space._keys):
        table.setflags(write=False)
    return space
