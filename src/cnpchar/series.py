"""Coefficient calculus for unitarily invariant kernels on the unit ball.

A kernel k(z, w) = sum_n a_n <z, w>^n with a_0 = 1 and a_n > 0 is stored as
its truncated coefficient sequence. Each sequence has one scalar type, fixed
when it is built: ``fractions.Fraction`` when every coefficient given is a
``Fraction`` or an int (the built-in kernels, so that every coefficient
identity can be asserted exactly), else float, every coefficient converted
as ``float`` converts it. Float paths read a series' float view
(``floats``, built once per series), so they do no ``Fraction`` arithmetic.
Exact sequences are multiplied, divided, inverted and certified over the
Python ints of their scaled view (``scaled``, built once per series, as
``floats`` is): the coefficients times their common denominator (1 for the
Bergman, Drury-Arveson and Szego kernels). A product or quotient builds
one ``Fraction`` per coefficient it returns, the contraction diagonal one
per value, and signs read numerators, with no ``Fraction`` arithmetic at
all.

The signed sequence b_n defined by

    sum_{n>=1} b_n t^n = 1 - 1 / (sum_{n>=0} a_n t^n)

drives most of the operator theory downstream: non-negativity of all b_n is
equivalent to the irreducible complete Nevanlinna-Pick property for this
class of kernels, and the multi-index lifts

    a_alpha = a_|alpha| * multinomial(alpha),   b_alpha likewise

are the coefficients appearing in every operator series. Computations
over labels read them from ``multiindex.BlockSpace.lift``: exact, or the
float view's lift float(c_n) * multinomial(alpha). ``RealSeries.coeff`` is
the scalar definition that lift is tested against. Products of two
kernels correspond exactly to Cauchy products of the one-variable
sequences, which is what makes the one-variable calculus sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ._linalg import complex_array, point_stack
from .multiindex import MultiIndex, degree, multinomial

Scalar = Union[Fraction, int, float]

DEFAULT_TRUNCATION = 32


class FactorizationError(ValueError):
    """Raised when a claimed kernel factorization fails coefficientwise."""


class Scaled(NamedTuple):
    """Exact coefficients c_n as the ints c_n * den, with den the lcm of their denominators."""

    ints: list
    den: int


@dataclass(frozen=True)
class RealSeries:
    """A truncated signed coefficient sequence c_0..c_N in one variable.

    Carries the ambient ball dimension so multi-index lifts are available via
    :meth:`coeff`. No sign or normalization constraints. The coefficients are
    stored as ``Fraction``s when each one given is a ``Fraction`` or an int,
    else as floats.
    """

    coefficients: tuple
    dim: int

    def __post_init__(self):
        coefficients = tuple(self.coefficients)
        # int first: an int tested against Fraction would take the slow ABC instance check
        if all(isinstance(c, (int, Fraction)) for c in coefficients):
            coefficients = tuple(Fraction(c) if isinstance(c, int) else c for c in coefficients)
        else:
            coefficients = tuple(map(float, coefficients))
        object.__setattr__(self, "coefficients", coefficients)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if not self.coefficients:
            raise ValueError("empty coefficient sequence")

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    @property
    def exact(self) -> bool:
        return isinstance(self.coefficients[0], Fraction)

    def coeff_1d(self, n: int):
        if n < 0 or n > self.truncation:
            raise ValueError(f"degree {n} beyond truncation {self.truncation}")
        return self.coefficients[n]

    def coeff(self, alpha: MultiIndex):
        """Multi-index lift c_alpha = c_|alpha| * multinomial(alpha)."""
        if len(alpha) != self.dim:
            raise ValueError(f"multi-index dimension {len(alpha)} != {self.dim}")
        return self.coeff_1d(degree(alpha)) * multinomial(alpha)

    @cached_property
    def floats(self):
        """The same series (and kind of series) with float coefficients, built once; a float series itself.

        Not a field, so equality, hashing and repr ignore it.
        """
        return replace(self, coefficients=tuple(map(float, self.coefficients))) if self.exact else self

    @cached_property
    def scaled(self) -> Optional[Scaled]:
        """The coefficients times their common denominator, as ints, with that denominator; built once.

        None for a float series. Not a field, so equality, hashing and repr
        ignore it.
        """
        if not self.exact:
            return None
        den = math.lcm(*(c.denominator for c in self.coefficients))
        return Scaled([c.numerator * (den // c.denominator) for c in self.coefficients], den)

    @cached_property
    def last_nonzero(self) -> int:
        """The degree of the last nonzero coefficient (0 when every coefficient is zero), found once."""
        return max((n for n, c in enumerate(self.coefficients) if c != 0), default=0)


class KernelValue(NamedTuple):
    value: Scalar
    tail_bound: float


@dataclass(frozen=True)
class KernelSeries(RealSeries):
    """A unitarily invariant kernel sum_n a_n <z,w>^n, truncated at order N.

    Invariants enforced at construction: a_0 = 1 and a_n > 0 for every stored
    coefficient (for an exact one, its numerator > 0).
    """

    def __post_init__(self):
        super().__post_init__()
        if self.coefficients[0] != 1:
            raise ValueError(f"a_0 must be 1, got {self.coefficients[0]}")
        exact = self.exact
        for n, a in enumerate(self.coefficients):
            if not (exact or math.isfinite(a)):
                raise ValueError(f"coefficient a_{n} = {a} is not finite")
            if not (a.numerator > 0 if exact else a > 0):
                raise ValueError(f"coefficient a_{n} = {a} is not strictly positive")

    @cached_property
    def b(self) -> RealSeries:
        """The sequence b with sum_{n>=1} b_n t^n = 1 - 1/k, stored as b_0 = 0, b_1, ...

        Computed on first use from the coefficients c of 1/k (c_0 = 1,
        c_n = -sum_{i=1}^{n} a_i c_{n-i}, b_n = -c_n), over the floats of a
        float kernel or the ints of an exact one's scaled view, or as the
        quotient (k - 1) / k (``_divide``) when that view's denominator is
        above 1. Not a field, so equality, hashing and repr ignore it.
        """
        exact, ((a, den),) = _views(self)
        if den != 1:
            return RealSeries(_divide(exact, [([0] + a[1:], den), (a, den)], len(a)), self.dim)
        inv = [a[0] ** 0]  # one of the right scalar type
        for n in range(1, len(a)):
            inv.append(-sum(a[i] * inv[n - i] for i in range(1, n + 1)))
        b = [0 * inv[0]] + [-c for c in inv[1:]]
        return RealSeries(b, self.dim)

    def evaluate(self, z: Sequence, w: Sequence, truncated: bool = False) -> KernelValue:
        """Partial sum of the kernel at a pair of points inside the ball, or pairwise along two stacks.

        For (d,) points the value and the tail bound are scalars; for two
        (P, d) stacks they are (P,) arrays, pair by pair. The sum runs Horner
        over the exact coefficients when both stacks are exact (every
        coordinate rational), else over the float view at the complex128
        points, with complex products in real arithmetic so that each pair
        rounds as a scalar evaluation would. The tail bound is a
        geometric estimate from the largest observed coefficient ratio; it is
        heuristic in that ratios beyond the truncation are assumed not to
        exceed the observed maximum. With ``truncated=True`` the partial sum
        is the requested semantics and the tail bound is reported as 0.
        """
        zs, single = point_stack(z)
        ws = point_stack(w)[0]
        if len(zs) != len(ws):
            raise ValueError("point stacks differ in length")
        if not len(zs):
            zs = ws = np.zeros((0, self.dim), complex)
        if zs.shape[1] != self.dim or ws.shape[1] != self.dim:
            raise ValueError("point dimension mismatch")
        if max(norms_sq(zs).max(initial=0), norms_sq(ws).max(initial=0)) >= 1:
            raise ValueError("point on or outside the unit sphere")
        t = _inner_products(zs, ws)
        if t.dtype == object:
            value = np.full(len(t), self.coefficients[-1], dtype=object)
            for a in reversed(self.coefficients[:-1]):
                value = value * t + a
        else:
            coeffs = self.floats.coefficients
            vr, vi = np.full(len(t), coeffs[-1]), np.zeros(len(t))
            for a in reversed(coeffs[:-1]):
                vr, vi = vr * t.real - vi * t.imag + a, vr * t.imag + vi * t.real
            value = complex_array(vr, vi)
        if truncated:
            tail = np.zeros(len(t))
        else:
            # at |<z, w>| = size: |a_N| size^N r / (1 - r) with r = size * growth, inf once r >= 1
            floats = self.floats.coefficients
            growth = max(floats[n + 1] / floats[n] for n in range(self.truncation))
            tc = np.asarray(t, dtype=complex)
            size = np.hypot(tc.real, tc.imag)
            r = size * growth
            with np.errstate(divide="ignore", invalid="ignore"):
                tail = abs(floats[-1]) * np.float_power(size, self.truncation) * (r / (1 - r))
            tail = np.where(r < 1, tail, math.inf)
        return KernelValue(value[0], float(tail[0])) if single else KernelValue(value, tail)


def norms_sq(points: np.ndarray) -> np.ndarray:
    """|p|^2 of each point of a stack, as sum(abs(complex(x)) ** 2 for x in p) gives it.

    The moduli go through the libm ``hypot`` of ``abs(complex)``, the squares
    through the libm ``pow`` of ``float.__pow__``, and the sum runs in
    coordinate order.
    """
    x = points.astype(complex)
    return np.cumsum(np.float_power(np.hypot(x.real, x.imag), 2), axis=1)[:, -1]


def _inner_products(zs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """<z, w> = sum_i z_i conj(w_i) for each pair of two stacks, added in coordinate order as the scalar sum does.

    Exact (object) when both stacks are exact, else complex with each
    product written in real arithmetic.
    """
    if zs.dtype == object and ws.dtype == object:
        terms = zs * np.conjugate(ws)
    else:
        za, wa = zs.astype(complex), np.conjugate(ws.astype(complex))
        terms = complex_array(
            za.real * wa.real - za.imag * wa.imag, za.real * wa.imag + za.imag * wa.real
        )
    out = terms[:, 0]
    for j in range(1, terms.shape[1]):
        out = out + terms[:, j]
    return out


# ---------------------------------------------------------------------------
# series arithmetic


def reciprocal_complement(k: KernelSeries) -> RealSeries:
    """The b-sequence of k (``KernelSeries.b``), computed once per kernel object."""
    return k.b


def _views(*series) -> tuple:
    """Whether every series is exact; and each one's scaled view then, else its float coefficients over the denominator 1."""
    exact = all(s.exact for s in series)
    return exact, [s.scaled if exact else (s.floats.coefficients, 1) for s in series]


def cauchy_product(p, q):
    """Coefficientwise convolution, truncated to the shorter of the two inputs.

    The product of two kernels is again a kernel; in that case a
    KernelSeries is returned, otherwise a RealSeries.
    """
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    n = min(len(p.coefficients), len(q.coefficients))
    exact, ((pa, pd), (qa, qd)) = _views(p, q)
    sums = [sum(pa[i] * qa[m - i] for i in range(m + 1)) for m in range(n)]
    out = [Fraction(c, pd * qd) for c in sums] if exact else sums
    if isinstance(p, KernelSeries) and isinstance(q, KernelSeries):
        return KernelSeries(out, p.dim)
    return RealSeries(out, p.dim)


def _divide(exact: bool, views: list, n: int) -> list:
    """q_0..q_{n-1} with cauchy_product(l, q) = a, for the views of ``_views`` of a and of l, with l_0 = 1.

    Runs q_m = a_m - sum_{i<m} q_i l_{m-i} over the views' floats, or over
    their ints A = D_a a and L = D l, with q_m = Q_m / D_a for D = 1. When
    D > 1, the partial results run as ints over their running lcm E, so
    that each q_m is one normalized ``Fraction`` of ints over D_a E D.
    """
    (a_int, da), (l_int, den) = views
    if den == 1:
        q: list = []
        for m in range(n):
            q.append(a_int[m] - sum(q[i] * l_int[m - i] for i in range(m)))
        return [Fraction(c, da) for c in q] if exact else q
    q, scaled, e = [], [], 1
    for m in range(n):
        s = sum(scaled[i] * l_int[m - i] for i in range(m))
        f = Fraction(a_int[m] * e * den - s * da, da * e * den)
        q.append(f)
        if e % f.denominator:
            step = f.denominator // math.gcd(e, f.denominator)
            scaled, e = [c * step for c in scaled], e * step
        scaled.append(f.numerator * (e // f.denominator))
    return q


def quotient(numerator, denominator) -> RealSeries:
    """Coefficients q with cauchy_product(denominator, q) = numerator.

    Requires the denominator to be normalized (leading coefficient 1).
    """
    if numerator.dim != denominator.dim:
        raise ValueError("dimension mismatch")
    if denominator.coefficients[0] != 1:
        raise ValueError("denominator must have leading coefficient 1")
    n = min(len(numerator.coefficients), len(denominator.coefficients))
    return RealSeries(_divide(*_views(numerator, denominator), n), numerator.dim)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class NonnegativityCertificate:
    """Outcome of checking coefficient signs up to a truncation order.

    ``holds_up_to`` is the truncation actually examined; the verdict never
    claims anything beyond it.
    """

    holds: bool
    holds_up_to: int
    first_negative: Optional[int]
    tolerance: float

    def __bool__(self) -> bool:
        return self.holds


def _sign_certificate(coeffs, start: int, tol: float) -> NonnegativityCertificate:
    """The first n >= start with c_n < -tol for a float c_n, or c_n < 0 (read off its numerator) for an exact one."""
    first = None
    for n in range(start, len(coeffs)):
        c = coeffs[n]
        negative = c < -tol if isinstance(c, float) else c.numerator < 0
        if negative:
            first = n
            break
    return NonnegativityCertificate(first is None, len(coeffs) - 1, first, tol)


def is_complete_pick(k: KernelSeries, tol: float = 1e-12) -> NonnegativityCertificate:
    """Certificate that k is an (irreducible) complete Nevanlinna-Pick kernel.

    For unitarily invariant kernels this is equivalent to b_n >= 0 for all n,
    checked here up to the truncation. Exact comparison in rational mode,
    tolerance ``tol`` in float mode.
    """
    b = reciprocal_complement(k)
    return _sign_certificate(b.coefficients, 1, 0.0 if b.exact else tol)


def is_positive_quotient(k: KernelSeries, l: KernelSeries, tol: float = 1e-12) -> NonnegativityCertificate:
    """Certificate that k/l has non-negative coefficients up to truncation.

    For unitarily invariant series, non-negative coefficients make the
    quotient a positive kernel; this is the operational test for the
    coordinate multipliers of k forming a 1/l-contraction.
    """
    q = quotient(k, l)
    return _sign_certificate(q.coefficients, 0, 0.0 if q.exact else tol)


@dataclass(frozen=True)
class KernelFactorization:
    """A verified factorization kernel = pick_factor * positive_part.

    ``positive_part`` is the quotient g = k/s with g_0 = 1 and g_n >= 0; the
    Cauchy product of the factor and g reproduces k coefficientwise up to the
    shared truncation (exactly in rational mode).
    """

    kernel: KernelSeries
    pick_factor: KernelSeries
    positive_part: RealSeries
    tolerance: float = 0.0

    def __post_init__(self):
        g = self.positive_part
        if g.coefficients[0] != 1:
            raise FactorizationError("positive part must have leading coefficient 1")
        prod = cauchy_product(self.pick_factor, g)
        exact = prod.exact and self.kernel.exact
        for n, (p, a) in enumerate(zip(prod.coefficients, self.kernel.coefficients)):
            err = p - a
            bad = err != 0 if exact else abs(err) > self.tolerance
            if bad:
                raise FactorizationError(
                    f"product deviates from kernel at degree {n}: {p} != {a}"
                )

    @property
    def truncation(self) -> int:
        return min(self.kernel.truncation, self.pick_factor.truncation)

    @property
    def dim(self) -> int:
        return self.kernel.dim


def factor_through_pick(k: KernelSeries, s: KernelSeries, tol: float = 1e-12) -> KernelFactorization:
    """Factor k = s * g for a complete Nevanlinna-Pick kernel s.

    Fails with FactorizationError when some quotient coefficient is negative
    (s is then not a CNP factor of k at this truncation), and with ValueError
    when s itself does not certify as CNP.
    """
    cert = is_complete_pick(s, tol)
    if not cert.holds:
        raise ValueError(
            f"factor is not a complete Nevanlinna-Pick kernel: "
            f"b_{cert.first_negative} < 0"
        )
    g = quotient(k, s)
    g_cert = _sign_certificate(g.coefficients, 0, 0.0 if g.exact else tol)
    if not g_cert.holds:
        raise FactorizationError(
            f"not a factorization: quotient coefficient at degree "
            f"{g_cert.first_negative} is negative"
        )
    # coefficient monotonicity forced by g >= 0, g_0 = 1; checked defensively
    n = min(k.truncation, s.truncation)
    for m in range(n + 1):
        if not (s.coefficients[m] <= k.coefficients[m] or _close(s.coefficients[m], k.coefficients[m], tol)):
            raise FactorizationError(f"factor coefficient exceeds kernel at degree {m}")
        if not (g.coefficients[m] <= k.coefficients[m] or _close(g.coefficients[m], k.coefficients[m], tol)):
            raise FactorizationError(f"quotient coefficient exceeds kernel at degree {m}")
    return KernelFactorization(k, s, g, 0.0 if (k.exact and s.exact) else tol)


def _close(x, y, tol: float) -> bool:
    return abs(float(x) - float(y)) <= tol


@dataclass(frozen=True)
class AdmissibilityReport:
    """Truncation-level evidence that a kernel is admissible.

    ``ratio_sup`` is max a_n / a_{n+1} over the stored range (boundedness of
    this ratio is equivalent to bounded coordinate multipliers).
    ``partial_sum_bound`` is the largest absolute diagonal value of
    I - (partial b-sums) on monomials, a uniform-boundedness certificate for
    the defining series of the contraction condition. Both are certificates
    up to the truncation only, never global claims.
    """

    ratio_sup: Scalar
    partial_sum_bound: Scalar
    checked_to: int
    verdict: str


def contraction_diagonal(k: KernelSeries, l: KernelSeries, n: int, top: int, *, last: bool = False) -> list:
    """The partial values 1 - sum_{j=1}^{d} b_j a_{n-j} / a_n for d = 0..top, a from k and b from l.

    The partial sums S_d run in order of j. When a and b are both exact they
    run over the scaled views' ints, A_i = D_a a_i and B_j = D_b b_j, and the
    value at d is the one ``Fraction`` (D_b A_n - S_d) / (D_b A_n); otherwise
    over the coefficients themselves, with the value 1 - S_d / a_n. By
    Vandermonde's identity (the multinomials of alpha and gamma - alpha,
    summed over |alpha| = j, give that of gamma), the value at d is the
    diagonal entry at any monomial z^gamma with |gamma| = n of
    I - sum_{1 <= |alpha| <= d} b_alpha M^alpha M^{alpha *} on the model of k.
    With ``last``, only the value at d = top is formed, as a one-item list.
    """
    if not 0 <= top <= n <= k.truncation or top > l.truncation:
        raise ValueError(f"need 0 <= top {top} <= n {n} <= {k.truncation} and top <= {l.truncation}")
    lb = reciprocal_complement(l)
    exact = k.scaled is not None and lb.scaled is not None
    (a, _), (b, den) = (k.scaled, lb.scaled) if exact else ((k.coefficients, 1), (lb.coefficients, 1))
    partial = 0 * a[0]
    sums = [partial]
    for j in range(1, top + 1):
        partial += b[j] * a[n - j]
        sums.append(partial)
    if last:
        sums = sums[-1:]
    if exact:
        whole = den * a[n]
        return [Fraction(whole - s, whole) for s in sums]
    return [1 - s / a[n] for s in sums]


def admissibility_report(k: KernelSeries) -> AdmissibilityReport:
    a = k.coefficients
    n_max = k.truncation
    ratio_sup = max((a[n] / a[n + 1] for n in range(n_max)), default=a[0] / a[0])
    bound = max(abs(value) for n in range(n_max + 1) for value in contraction_diagonal(k, k, n, n))
    return AdmissibilityReport(ratio_sup, bound, n_max, f"certified up to {n_max}")


# ---------------------------------------------------------------------------
# built-in kernels


def bergman_kernel(m: int, dim: int, truncation: int = DEFAULT_TRUNCATION) -> KernelSeries:
    """The m-th power of the Szego-type ball kernel: a_n = binom(n+m-1, n).

    m = 1 is the Drury-Arveson kernel. Exact integer coefficients; the lifted
    coefficient at alpha equals (m+|alpha|-1)! / (alpha! (m-1)!).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return KernelSeries(tuple(math.comb(n + m - 1, n) for n in range(truncation + 1)), dim)


def drury_arveson_kernel(dim: int, truncation: int = DEFAULT_TRUNCATION) -> KernelSeries:
    """1 / (1 - <z,w>): all coefficients 1."""
    return bergman_kernel(1, dim, truncation)


def szego_kernel(dim: int, truncation: int = DEFAULT_TRUNCATION) -> KernelSeries:
    """Alias for the a_n = 1 kernel (the Hardy-space kernel when dim = 1)."""
    return bergman_kernel(1, dim, truncation)


def dirichlet_kernel(dim: int, truncation: int = DEFAULT_TRUNCATION) -> KernelSeries:
    """a_n = 1/(n+1), the kernel -log(1 - <z,w>) / <z,w>."""
    coeffs = tuple(Fraction(1, n + 1) for n in range(truncation + 1))
    return KernelSeries(coeffs, dim)


def kernel_from_coefficients(a: Sequence[Scalar], dim: int) -> KernelSeries:
    return KernelSeries(tuple(a), dim)


# ---------------------------------------------------------------------------
# kernel spec files (JSON-compatible dicts)


def _scalar_to_string(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(x)


def _scalar_from_string(s: str):
    """A "p/q" or integer string as an exact Fraction, any other number as a float; ValueError names a bad one."""
    s = s.strip()
    try:
        if "/" not in s:
            return Fraction(int(s)) if s.lstrip("+-").isdigit() else float(s)
        num, den = (int(part) for part in s.split("/"))
    except ValueError:
        raise ValueError(f"bad scalar {s!r}: expected a number or p/q") from None
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(num, den)


def _scalar_from_spec(x):
    """A spec entry: a string as ``_scalar_from_string`` reads it, or a JSON number."""
    if isinstance(x, str):
        return _scalar_from_string(x)
    if isinstance(x, (int, float)):
        return x
    raise ValueError(f"bad scalar {x!r}: expected a number or p/q")


def kernel_from_spec(spec: dict) -> KernelSeries:
    """Build a kernel from a spec dict, e.g. parsed from a JSON file.

    Supported kinds: bergman (fields m, d, truncation), szego, dirichlet
    (fields d, truncation), coeffs (fields a: list of "p/q" or integer strings
    or JSON numbers, d). A coeffs kernel is exact when every entry is a "p/q"
    or an integer, as a string or a JSON number, and a float series when any
    entry is another number; a JSON bool is no coefficient. The fields m, d and
    truncation must be integers; other fields, such as the "radius_one" flag
    of older coeffs specs, are ignored.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("kernel spec must be an object with a 'kind' field")
    kind = spec["kind"]

    def integer(name):
        value = spec[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"kernel spec field {name!r} must be an integer, got {value!r}")
        return value

    def coefficient(x):
        if isinstance(x, bool):
            raise ValueError(f"bad scalar {x!r}: expected a number or p/q")
        return _scalar_from_spec(x)

    try:
        trunc = integer("truncation") if "truncation" in spec else DEFAULT_TRUNCATION
        if kind == "bergman":
            return bergman_kernel(integer("m"), integer("d"), trunc)
        if kind == "szego":
            return szego_kernel(integer("d"), trunc)
        if kind == "dirichlet":
            return dirichlet_kernel(integer("d"), trunc)
        if kind == "coeffs":
            if not isinstance(spec["a"], list):
                raise ValueError(f"'a' must be a list of coefficients, got {spec['a']!r}")
            a = [coefficient(x) for x in spec["a"]]
            return kernel_from_coefficients(a, integer("d"))
    except KeyError as exc:
        raise ValueError(f"kernel spec missing field {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed kernel spec: {exc}") from exc
    raise ValueError(f"unknown kernel kind {kind!r}")


def kernel_to_spec(k: KernelSeries) -> dict:
    return {
        "kind": "coeffs",
        "a": [_scalar_to_string(c) for c in k.coefficients],
        "d": k.dim,
    }
