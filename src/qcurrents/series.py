"""Exact truncated series arithmetic.

Two layers:

* ``HSeries`` -- elements of Q[[h]]/h^K with exact rational coefficients,
  where ``h`` is the deformation variable.  All identities in this package
  are asserted coefficient-by-coefficient in this ring; there is no floating
  point anywhere.  A series holds integer numerators over one reduced
  common denominator, so its arithmetic runs on Python ints with one gcd
  per result; ``Fraction`` appears only at the edges (construction from
  rationals, ``coeffs``, inversion and the JSON form).

* ``KernelFn`` -- windowed multivariate Laurent objects over ``HSeries``:
  finitely many exponent tuples inside a per-variable window, each carrying
  an ``HSeries`` coefficient.  A ``Region`` (a total order on the variables,
  largest first) records the direction in which rational kernels such as
  ``1/(z-w)`` were expanded.  Terms pushed outside the window by an
  operation are discarded.  A window product of one-direction expansions,
  whose terms all have large-variable exponent <= 0 and small-variable
  exponent >= 0 (such as ``1/(z-w)`` for w << z), is exact on the whole
  window: every partial product of a kept term lies in the window too.
  Only mixed-direction products read sources outside the window, so for
  them verification suites build on a window widened past the check box
  (``kernels.build_window``: half-width ``2*check + K``) and assert only on
  the box, where every coefficient is exact.  The public constructor checks
  every term against the window and truncates it to K.  The results of
  ``mul``, ``+``, ``-`` and ``restrict`` skip both checks (``_filtered``):
  these operations keep only terms inside the result window, built at its K.
  ``copy_with`` (negation, scalar products, ``diff``, ``hbar_scale``,
  ``divide_hbar``, ``geometry.project``) keeps the truncation to K but
  not the window check: its exponents come from the kernel it copies.
  ``hbar_coefficient(n)`` reads one h-order as {exponents: Fraction}; the
  polynomials in g_0..g_{K-1} of ``kernels`` are read this way.

Translation-invariant kernels are built in the one variable t = z - w
(region ``T``, window [-K, 0]) and mapped into a two-variable region once
by ``expand_difference``.

``HLaurent`` extends ``HSeries`` with an integer h-valuation offset; it is
the field-of-fractions element used by the Gram-inversion code.
``row_reduce`` is the one exact elimination routine, over ``Fraction`` or
``HLaurent`` entries.

The expansion helpers, ``shuffle.star``, its mode-free factors and
``placements``, ``pairing.pair``, ``cartan.T_operator``, ``cartan.invert_T``
(the blocks of the inverse S, as kernels) and the exchange kernels are
``memoized`` on their arguments, which hash and compare by content;
``clear_memos`` empties every memo table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm

Q = Fraction
Q0 = Fraction(0)
Q1 = Fraction(1)


def _as_q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


_new = object.__new__


def _exact(den: int, nums: tuple) -> "HSeries":
    """The series nums/den, already in canonical form: no check, no copy."""
    hs = _new(HSeries)
    hs.den = den
    hs.nums = nums
    return hs


def _from_ints(den: int, nums) -> "HSeries":
    """The series nums/den for den > 0 and integer nums, reduced to canonical
    form by one gcd; the internal constructor of the arithmetic."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
    return _exact(den, tuple(nums))


def _fitted(den: int, nums: tuple, K: int) -> "HSeries":
    """nums/den cut or padded with zeros to K orders (den, nums canonical)."""
    if K <= 0:
        raise ValueError("truncation order must be positive")
    if len(nums) > K:
        return _from_ints(den, nums[:K])
    return _exact(den, nums + (0,) * (K - len(nums)))


class HSeries:
    """Immutable truncated power series sum_{k<K} c_k h^k, c_k rational.

    The coefficients are integer numerators over one common denominator,
    c_k = nums[k] / den, in canonical form: den > 0, gcd(den, *nums) == 1,
    and den == 1 for the zero series.  Equal series therefore have equal
    (den, nums), which ``__eq__`` and ``__hash__`` compare.  The ring
    operations run on the integers and reduce each result by one gcd;
    ``coeffs`` builds the ``Fraction`` tuple for readers that want one.
    """

    __slots__ = ("den", "nums")

    def __init__(self, coeffs, K=None):
        cs = [_as_q(c) for c in coeffs]
        if K is not None:
            if K <= 0:
                raise ValueError("truncation order must be positive")
            cs = cs[:K] + [Q0] * max(0, K - len(cs))
        if not cs:
            raise ValueError("empty coefficient list")
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(*(c.denominator for c in cs))
        self.den = den
        self.nums = tuple(c.numerator * (den // c.denominator) for c in cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c, K: int) -> "HSeries":
        c = _as_q(c)
        return _fitted(c.denominator, (c.numerator,), K)

    @staticmethod
    def zero(K: int) -> "HSeries":
        return _fitted(1, (0,), K)

    @staticmethod
    def one(K: int) -> "HSeries":
        return _fitted(1, (1,), K)

    @staticmethod
    def hbar(K: int, power: int = 1, coeff=Q1) -> "HSeries":
        if power >= K:
            return HSeries.zero(K)
        c = _as_q(coeff)
        nums = [0] * K
        nums[power] = c.numerator
        return _exact(c.denominator, tuple(nums))

    # -- basics -------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of ``Fraction``, built on each read."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def K(self) -> int:
        return len(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def valuation(self):
        """Smallest k with c_k != 0, or None for the zero series."""
        for k, n in enumerate(self.nums):
            if n:
                return k
        return None

    def truncate(self, K: int) -> "HSeries":
        return self if K == len(self.nums) else _fitted(self.den, self.nums, K)

    def __eq__(self, other):
        # the canonical form makes equal values equal (den, nums), and equal
        # nums imply equal K, so __hash__ agrees
        if not isinstance(other, HSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))

    def __repr__(self):
        return "HSeries(%s)" % (list(map(str, self.coeffs)),)

    # -- ring operations (results truncated to the min of the inputs) --

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HSeries.const(other, self.K)
        da, db = self.den, other.den
        if da == db:
            return _from_ints(da, [x + y for x, y in zip(self.nums, other.nums)])
        d = lcm(da, db)
        fa, fb = d // da, d // db
        return _from_ints(d, [x * fa + y * fb
                              for x, y in zip(self.nums, other.nums)])

    __radd__ = __add__

    def __neg__(self):
        return _exact(self.den, tuple(-x for x in self.nums))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HSeries.const(other, self.K)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _from_ints(self.den, [other * x for x in self.nums])
        if isinstance(other, Fraction):
            p = other.numerator
            return _from_ints(self.den * other.denominator,
                              [p * x for x in self.nums])
        a, b = self.nums, other.nums
        K = min(len(a), len(b))
        out = [0] * K
        for i in range(K):
            x = a[i]
            if x:
                for j in range(K - i):
                    y = b[j]
                    if y:
                        out[i + j] += x * y
        return _from_ints(self.den * other.den, out)

    __rmul__ = __mul__

    def inv(self) -> "HSeries":
        cs = self.coeffs
        a0 = cs[0]
        if not a0:
            raise ValueError("leading coefficient is zero, not invertible")
        K = self.K
        out = [Q0] * K
        out[0] = 1 / a0
        for n in range(1, K):
            s = Q0
            for k in range(1, n + 1):
                s += cs[k] * out[n - k]
            out[n] = -s / a0
        return HSeries(out)

    def shift(self, k: int) -> "HSeries":
        """Multiply by h^k (k may be negative; dropping nonzero terms raises)."""
        K = self.K
        if k >= 0:
            return _fitted(self.den, (0,) * k + self.nums, K)
        if any(self.nums[:-k]):
            raise ValueError("negative shift would drop nonzero coefficients")
        return _fitted(self.den, self.nums[-k:], K)

    def subst_scale(self, c) -> "HSeries":
        """h -> c*h for an exact rational c."""
        c = _as_q(c)
        return HSeries([a * c**k for k, a in enumerate(self.coeffs)])

    def to_json(self):
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]


class HLaurent:
    """h^offset * HSeries: exact truncated Laurent series in h.

    Used where Gram inversion produces negative h-valuations.  ``known``
    orders are offset .. offset+K-1.
    """

    __slots__ = ("offset", "hs")

    def __init__(self, offset: int, hs: HSeries):
        # kept as given: leading zeros of hs stay, and only ``normalized``
        # folds them into the offset
        self.offset = offset
        self.hs = hs

    @staticmethod
    def from_hseries(hs: HSeries) -> "HLaurent":
        return HLaurent(0, hs)

    @property
    def K(self):
        return self.hs.K

    def is_zero(self):
        return self.hs.is_zero()

    def valuation(self):
        v = self.hs.valuation()
        return None if v is None else self.offset + v

    def normalized(self) -> "HLaurent":
        v = self.hs.valuation()
        if v is None or v == 0:
            return self
        return HLaurent(self.offset + v, self.hs.shift(-v))

    def _aligned(self, other):
        off = min(self.offset, other.offset)
        # absolute precision = min of the two known upper bounds
        top = min(self.offset + self.K, other.offset + other.K)
        K = top - off
        if K <= 0:
            raise ValueError("no overlapping known orders")
        a, b = self.hs, other.hs
        return (off, _fitted(a.den, (0,) * (self.offset - off) + a.nums, K),
                _fitted(b.den, (0,) * (other.offset - off) + b.nums, K))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HLaurent(0, HSeries.const(other, self.K))
        off, a, b = self._aligned(other)
        return HLaurent(off, a + b)

    def __neg__(self):
        return HLaurent(self.offset, -self.hs)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HLaurent(0, HSeries.const(other, self.K))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HLaurent(self.offset, self.hs * other)
        return HLaurent(self.offset + other.offset, self.hs * other.hs)

    __rmul__ = __mul__

    def inv(self) -> "HLaurent":
        n = self.normalized()
        return HLaurent(-n.offset, n.hs.inv())

    def __eq__(self, other):
        if not isinstance(other, HLaurent):
            return NotImplemented
        d = self - other
        return d.is_zero()

    def __repr__(self):
        return f"HLaurent(h^{self.offset} * {self.hs!r})"


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------


def _valuation(x):
    """h-valuation of a Fraction or HLaurent entry: None for zero, and 0 for
    every nonzero rational."""
    if isinstance(x, HLaurent):
        return x.valuation()
    return 0 if x else None


def row_reduce(matrix, extra=None):
    """Gauss-Jordan elimination over Fraction or HLaurent entries.

    Each column pivots on its least-h-valuation entry among the rows not
    yet used, the first such row on ties.  The pivot row is divided by the
    pivot and the column is cleared above and below; the rows of ``extra``
    receive the same row operations.  Returns ``(rows, extra, pivots,
    det)``: the reduced rows, the transformed extra rows, the pivot column
    of each leading row, and the signed product of the pivots, or None when
    some column has no pivot.  The arguments are not modified.
    """
    rows = [list(row) for row in matrix]
    extra = None if extra is None else [list(row) for row in extra]
    pivots = []
    det = 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        piv, pv = None, None
        for r in range(top, len(rows)):
            v = _valuation(rows[r][col])
            if v is not None and (pv is None or v < pv):
                piv, pv = r, v
        if piv is None:
            det = None
            continue
        if piv != top:
            rows[top], rows[piv] = rows[piv], rows[top]
            if extra is not None:
                extra[top], extra[piv] = extra[piv], extra[top]
            if det is not None:
                det = -det
        p = rows[top][col]
        if det is not None:
            det = det * p
        pinv = p.inv() if isinstance(p, HLaurent) else 1 / p
        rows[top] = [x * pinv for x in rows[top]]
        if extra is not None:
            extra[top] = [x * pinv for x in extra[top]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r == top or _valuation(f) is None:
                continue
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
            if extra is not None:
                extra[r] = [a - f * b for a, b in zip(extra[r], extra[top])]
        pivots.append(col)
    return rows, extra, pivots, det


# ---------------------------------------------------------------------------
# windowed multivariate Laurent objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """Per-variable exponent bounds (lo, hi), aligned with the variable list."""

    bounds: tuple

    def __post_init__(self):
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError("window must have lo <= hi")

    @staticmethod
    def cube(lo: int, hi: int, nvars: int) -> "Window":
        return Window(tuple((lo, hi) for _ in range(nvars)))

    def contains(self, exps) -> bool:
        return all(lo <= e <= hi for e, (lo, hi) in zip(exps, self.bounds))

    def intersect(self, other: "Window") -> "Window":
        return Window(
            tuple(
                (max(a, c), min(b, d))
                for (a, b), (c, d) in zip(self.bounds, other.bounds)
            )
        )

    def drop(self, index: int) -> "Window":
        return Window(self.bounds[:index] + self.bounds[index + 1 :])


@dataclass(frozen=True)
class Region:
    """Total order on variables, largest first: order[0] >> order[1] >> ...

    Rational kernels like 1/(x-y) are expanded in ascending powers of the
    smaller variable.
    """

    order: tuple

    def index(self, name: str) -> int:
        return self.order.index(name)

    def drop(self, name: str) -> "Region":
        return Region(tuple(v for v in self.order if v != name))


class KernelFn:
    """Windowed Laurent object: {exponent tuple -> HSeries} over a region.

    Treated as an immutable value: every operation returns a new object,
    so instances are safe to share, as the memo tables do.
    """

    __slots__ = ("region", "terms", "window", "K")

    def __init__(self, region: Region, terms: dict, window: Window, K: int):
        if len(window.bounds) != len(region.order):
            raise ValueError("window/variable arity mismatch")
        self.region = region
        self.window = window
        self.K = K
        clean = {}
        for e, hs in terms.items():
            if not window.contains(e):
                raise ValueError(f"term {e} outside window")
            hs = hs.truncate(K)
            if not hs.is_zero():
                clean[e] = hs
        self.terms = clean

    @classmethod
    def _filtered(cls, region, terms, window, K) -> "KernelFn":
        """A result whose terms are already inside ``window`` and at K: only
        zero coefficients are dropped, no term is checked again."""
        if len(window.bounds) != len(region.order):
            raise ValueError("window/variable arity mismatch")
        kf = _new(cls)
        kf.region, kf.window, kf.K = region, window, K
        kf.terms = {e: hs for e, hs in terms.items() if any(hs.nums)}
        return kf

    # -- constructors --------------------------------------------------

    @property
    def variables(self):
        return self.region.order

    @staticmethod
    def zero(region: Region, window: Window, K: int) -> "KernelFn":
        return KernelFn(region, {}, window, K)

    @staticmethod
    def const(c, region: Region, window: Window, K: int) -> "KernelFn":
        z = (0,) * len(region.order)
        return KernelFn(region, {z: HSeries.const(c, K)}, window, K)

    @staticmethod
    def monomial(exps, coeff, region: Region, window: Window, K: int) -> "KernelFn":
        hs = coeff if isinstance(coeff, HSeries) else HSeries.const(coeff, K)
        return KernelFn(region, {tuple(exps): hs}, window, K)

    def copy_with(self, terms=None):
        """This kernel with other coefficients on (a subset of) its own
        exponents: each is truncated to K and zeros are dropped, but no
        exponent is checked against the window again."""
        K = self.K
        terms = self.terms if terms is None else terms
        return KernelFn._filtered(
            self.region, {e: hs.truncate(K) for e, hs in terms.items()},
            self.window, K)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        """Equal region, window, K and terms; compare on a smaller box by
        restricting both sides to it first."""
        if not isinstance(other, KernelFn):
            return NotImplemented
        return (self.region == other.region and self.window == other.window
                and self.K == other.K and self.terms == other.terms)

    def __repr__(self):
        n = len(self.terms)
        return f"KernelFn({'/'.join(self.variables)}, {n} terms, K={self.K})"

    def hbar_valuation(self):
        vals = [hs.valuation() for hs in self.terms.values()]
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None

    def coefficient(self, exps) -> HSeries:
        return self.terms.get(tuple(exps), HSeries.zero(self.K))

    def hbar_coefficient(self, n: int) -> dict:
        """{exponents: Fraction} of the nonzero h^n coefficients."""
        return {e: Fraction(hs.nums[n], hs.den)
                for e, hs in self.terms.items() if hs.nums[n]}

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "KernelFn"):
        if self.variables != other.variables:
            raise ValueError("variable-set mismatch")
        if self.region != other.region:
            raise ValueError("region mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KernelFn.const(other, self.region, self.window, self.K)
        self._check_compatible(other)
        window = self.window.intersect(other.window)
        K = min(self.K, other.K)
        out = {}
        for src in (self.terms, other.terms):
            for e, hs in src.items():
                if not window.contains(e):
                    continue
                cur = out.get(e)
                out[e] = hs.truncate(K) if cur is None else cur + hs
        return KernelFn._filtered(self.region, out, window, K)

    def __neg__(self):
        return self.copy_with(terms={e: -hs for e, hs in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KernelFn.const(other, self.region, self.window, self.K)
        return self + (-other)

    def scalar_mul(self, c) -> "KernelFn":
        if isinstance(c, HSeries):
            return self.copy_with(terms={e: hs * c for e, hs in self.terms.items()})
        c = _as_q(c)
        return self.copy_with(terms={e: hs * c for e, hs in self.terms.items()})

    def mul(self, other: "KernelFn", window: Window | None = None) -> "KernelFn":
        """Product, filtered to the target window."""
        self._check_compatible(other)
        if window is None:
            window = self.window.intersect(other.window)
        K = min(self.K, other.K)
        # each operand over one common denominator: the rows sum integers
        da = lcm(*(hs.den for hs in self.terms.values()))
        db = lcm(*(hs.den for hs in other.terms.values()))
        flat_b = []
        for e, hs in other.terms.items():
            f = db // hs.den
            for k, n in enumerate(hs.nums[:K]):
                if n:
                    flat_b.append((e, k, n * f))
        acc: dict = {}
        bounds = window.bounds
        for ea, hsa in self.terms.items():
            f = da // hsa.den
            for ka, na in enumerate(hsa.nums[:K]):
                if not na:
                    continue
                na *= f
                kmax = K - ka
                for eb, kb, nb in flat_b:
                    if kb >= kmax:
                        continue
                    e = tuple(x + y for x, y in zip(ea, eb))
                    ok = True
                    for x, (lo, hi) in zip(e, bounds):
                        if x < lo or x > hi:
                            ok = False
                            break
                    if not ok:
                        continue
                    row = acc.get(e)
                    if row is None:
                        row = [0] * K
                        acc[e] = row
                    row[ka + kb] += na * nb
        den = da * db
        terms = {e: _from_ints(den, row) for e, row in acc.items()}
        return KernelFn._filtered(self.region, terms, window, K)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, HSeries)):
            return self.scalar_mul(other)
        return self.mul(other)

    __rmul__ = __mul__

    def _power_sum(self, coeff, window: Window) -> "KernelFn":
        """sum_j coeff(j) * self^j for a kernel with h-valuation >= 1, whose
        powers vanish from j = K on."""
        v = self.hbar_valuation()
        if self.terms and (v is None or v < 1):
            raise ValueError("power series needs h-valuation >= 1")
        out = KernelFn.const(coeff(0), self.region, window, self.K)
        power = KernelFn.const(1, self.region, window, self.K)
        for j in range(1, self.K):
            power = power.mul(self, window)
            if power.is_zero():
                break
            out = out + power.scalar_mul(coeff(j))
        return out

    def exp(self, window: Window | None = None) -> "KernelFn":
        """exp of a kernel with h-valuation >= 1 (finite sum at truncation)."""
        return self._power_sum(lambda j: Fraction(1, factorial(j)),
                               window or self.window)

    def log1p(self, window: Window | None = None) -> "KernelFn":
        """log(1 + self) for a kernel with h-valuation >= 1."""
        return self._power_sum(lambda j: Fraction((-1) ** (j + 1), j) if j else 0,
                               window or self.window)

    def inv(self, window: Window | None = None) -> "KernelFn":
        """Inverse of u*1 + N with u a unit HSeries and N of h-valuation >= 1."""
        zero_exp = (0,) * len(self.variables)
        u = self.terms.get(zero_exp)
        if u is None or u.valuation() != 0:
            raise ValueError("constant term not a unit")
        uinv = u.inv()
        n = self - KernelFn.monomial(zero_exp, u, self.region, self.window, self.K)
        geometric = n.scalar_mul(uinv)._power_sum(lambda j: (-1) ** j,
                                                  window or self.window)
        return geometric.scalar_mul(uinv)

    def hbar_scale(self, c) -> "KernelFn":
        """h -> c*h on every coefficient."""
        return self.copy_with(
            terms={e: hs.subst_scale(c) for e, hs in self.terms.items()}
        )

    def divide_hbar(self, k: int) -> "KernelFn":
        return self.copy_with(terms={e: hs.shift(-k) for e, hs in self.terms.items()})

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "KernelFn":
        i = self.region.index(var)
        out = {}
        lo, hi = self.window.bounds[i]
        for e, hs in self.terms.items():
            n = e[i]
            if n == 0 or not (lo <= n - 1 <= hi):
                continue
            e2 = e[:i] + (n - 1,) + e[i + 1 :]
            cur = out.get(e2)
            add = hs * n
            out[e2] = add if cur is None else cur + add
        return self.copy_with(terms=out)

    def diff_op(self, var: str, series) -> "KernelFn":
        """Apply sum_k series[k] * d^k/d(var)^k; series[k] are HSeries."""
        out = KernelFn.zero(self.region, self.window, self.K)
        cur = self
        for k, s in enumerate(series):
            if k > 0:
                cur = cur.diff(var)
                if not cur.terms:
                    break
            if s is None or s.is_zero():
                continue
            out = out + cur.scalar_mul(s)
        return out

    def shift_subst(self, var: str, c) -> "KernelFn":
        """var -> var + c*h via the finite Taylor sum (c exact rational)."""
        c = _as_q(c)
        if c == 0:
            return self
        out = self
        cur = self
        for k in range(1, self.K):
            cur = cur.diff(var)
            if not cur.terms:
                break
            out = out + cur.scalar_mul(HSeries.hbar(self.K, k, c**k / factorial(k)))
        return out

    def rename(self, mapping: dict, region: Region | None = None,
               window: Window | None = None) -> "KernelFn":
        """Injective variable renaming; the region order must be supplied when
        the name order changes meaning."""
        newvars = tuple(mapping.get(v, v) for v in self.variables)
        if len(set(newvars)) != len(newvars):
            raise ValueError("rename must stay injective; use substitute_var to merge")
        region = region or Region(newvars)
        if set(region.order) != set(newvars):
            raise ValueError("region does not cover renamed variables")
        perm = [newvars.index(v) for v in region.order]
        window = window or Window(tuple(self.window.bounds[p] for p in perm))
        terms = {tuple(e[p] for p in perm): hs for e, hs in self.terms.items()}
        return KernelFn(region, terms, window, self.K)

    def substitute_var(self, var_from: str, var_to: str, shift=0,
                       region: Region | None = None) -> "KernelFn":
        """Set var_from = var_to + shift*h, merging exponents onto var_to."""
        f = self.shift_subst(var_from, shift) if shift else self
        i = f.region.index(var_from)
        if var_to not in f.variables:
            return f.rename({var_from: var_to}, region=region)
        j = f.region.index(var_to)
        region2 = region or f.region.drop(var_from)
        window2 = f.window.drop(i)
        jj = region2.index(var_to)
        lo, hi = window2.bounds[jj]
        out = {}
        for e, hs in f.terms.items():
            merged = e[j] + e[i]
            if not (lo <= merged <= hi):
                continue
            rest = list(e)
            rest[j] = merged
            del rest[i]
            e2 = tuple(rest)
            cur = out.get(e2)
            out[e2] = hs if cur is None else cur + hs
        return KernelFn(region2, out, window2, f.K)

    def transpose_in_region(self) -> "KernelFn":
        """Argument swap for a two-variable Laurent polynomial, same region."""
        if len(self.variables) != 2:
            raise ValueError("transpose needs exactly two variables")
        terms = {(e[1], e[0]): hs for e, hs in self.terms.items()}
        w = Window((self.window.bounds[1], self.window.bounds[0]))
        return KernelFn(self.region, terms, w, self.K)

    def restrict(self, window: Window) -> "KernelFn":
        terms = {e: hs for e, hs in self.terms.items() if window.contains(e)}
        return KernelFn._filtered(self.region, terms, window, self.K)

    def embed(self, region: Region, window: Window) -> "KernelFn":
        """View in a larger variable set (new variables get exponent 0)."""
        pos = {v: i for i, v in enumerate(region.order)}
        n = len(region.order)
        terms = {}
        for e, hs in self.terms.items():
            e2 = [0] * n
            for v, x in zip(self.variables, e):
                e2[pos[v]] = x
            terms[tuple(e2)] = hs
        return KernelFn(region, terms, window, self.K)

    # -- serialization -------------------------------------------------

    def to_json(self):
        items = sorted(self.terms.items())
        return {
            "variables": list(self.variables),
            "window": [list(b) for b in self.window.bounds],
            "K": self.K,
            # fixed field of the qc-report/1 schema; no kernel tracks loss
            "lossy": False,
            "terms": [
                {"exponents": list(e), "hbar_coeffs": hs.to_json()}
                for e, hs in items
            ],
        }


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------

_MEMOS: list = []


def memoized(fn):
    """Memoize ``fn`` on its positional arguments, in the dict ``fn.memo``.

    Every argument hashes and compares by content, never by object
    identity, so a hit can only return the value of an equal input.
    Memoized values are shared, which is safe because ``HSeries`` and
    ``KernelFn`` are immutable and callers only read them.  The wrapper is
    a plain function (not ``functools.cache``), so tracers that wrap module
    functions see it.
    """
    memo = {}
    _MEMOS.append(memo)

    @functools.wraps(fn)
    def wrapper(*args):
        out = memo.get(args)
        if out is None:
            out = memo[args] = fn(*args)
        return out

    wrapper.memo = memo
    return wrapper


def clear_memos() -> None:
    """Empty the table of every ``memoized`` function."""
    for table in _MEMOS:
        table.clear()


# ---------------------------------------------------------------------------
# expansion helpers
# ---------------------------------------------------------------------------

T = Region(("t",))


def shifted_pole_t(a, K: int) -> KernelFn:
    """1/(t - a*h) = sum_{m<K} a^m h^m t^(-1-m), over region ``T``.

    Its window [-K, 0] also holds every product of series whose t^(-n)
    terms start at h-order n (the exchange kernels and their closed forms),
    since h-orders stop at K - 1.
    """
    a = _as_q(a)
    terms = {(-1 - m,): HSeries.hbar(K, m, a**m) for m in range(K)}
    return KernelFn(T, terms, Window(((-K, 0),)), K)


def _pole_slots(region: Region, large: str, small: str):
    il = region.index(large)
    is_ = region.index(small)
    if il > is_:
        raise ValueError(f"{large} is not larger than {small} in this region")
    return il, is_


def expand_difference(f: KernelFn, region: Region, large: str, small: str,
                      window: Window) -> KernelFn:
    """Map a series f in t = x_large - x_small into the region small << large.

    f lives on region ``T`` and has no positive power of t.  The constant
    stays constant, and each power t^(-n), n >= 1, becomes
    sum_{i>=0} C(n-1+i, i) large^(-n-i) small^i, clipped to the window
    (large exponent >= its lo, small exponent <= its hi); the exponent pair
    (-n-i, i) fixes n and i, so no two terms meet.
    """
    il, is_ = _pole_slots(region, large, small)
    lo_l, _ = window.bounds[il]
    _, hi_s = window.bounds[is_]
    nvars = len(region.order)
    terms = {}
    for (p,), hs in f.terms.items():
        if p > 0:
            raise ValueError("positive powers of t have no expansion here")
        if p == 0:
            terms[(0,) * nvars] = hs
            continue
        for i in range(hi_s + 1):
            if p - i < lo_l:
                break
            e = [0] * nvars
            e[il] = p - i
            e[is_] = i
            c = comb(-p - 1 + i, i)
            terms[tuple(e)] = _from_ints(hs.den, [c * x for x in hs.nums])
    return KernelFn(region, terms, window, f.K)


@memoized
def expand_pole(region: Region, large: str, small: str, window: Window,
                K: int) -> KernelFn:
    """Geometric expansion of 1/(x_large - x_small), ascending in the small
    variable: sum_{i>=0} large^{-1-i} small^i, clipped to the window."""
    return expand_difference(shifted_pole_t(0, K), region, large, small,
                             window)


@memoized
def expand_shifted_pole_inv(region: Region, large: str, small: str, a,
                            window: Window, K: int) -> KernelFn:
    """Expansion of 1/(x_large - x_small - a*h) in the region small << large:
    sum_{m,i} C(m+i, i) a^m h^m large^{-1-m-i} small^i over m < K, clipped
    to the window (large exponent >= its lo, small exponent <= its hi)."""
    return expand_difference(shifted_pole_t(a, K), region, large, small,
                             window)


@memoized
def expand_linear_ratio(region: Region, large: str, small: str, a, b,
                        window: Window, K: int) -> KernelFn:
    """Expansion of (x - y + a*h)/(x - y + b*h) for x = large >> y = small."""
    inv = expand_shifted_pole_inv(region, large, small, -b, window, K)
    one = KernelFn.const(1, region, window, K)
    return one + inv.scalar_mul(HSeries.hbar(K, 1, a - b))


def linear_factor(region: Region, x: str, y: str, c, window: Window,
                  K: int) -> KernelFn:
    """The Laurent polynomial x - y + c*h."""
    n = len(region.order)
    ix, iy = region.index(x), region.index(y)
    ex = [0] * n
    ex[ix] = 1
    ey = [0] * n
    ey[iy] = 1
    terms = {tuple(ex): HSeries.one(K), tuple(ey): HSeries.const(-1, K)}
    c = _as_q(c)
    if c:
        terms[(0,) * n] = HSeries.hbar(K, 1, c)
    return KernelFn(region, terms, window, K)


def divide_linear(f: KernelFn, x: str, y: str) -> KernelFn:
    """Exact division by (x - y); raises if a nonzero remainder appears.

    Works down the x-exponents: f = (x-y) g forces
    g[p-1, q] = f[p, q] + g[p, q-1]; the induced g at one step below the
    lowest x-exponent must vanish identically (that is the remainder).  The
    recursion runs on integer rows over the lcm of f's denominators.
    """
    ix = f.region.index(x)
    iy = f.region.index(y)
    if not f.terms:
        return f
    den = lcm(*(hs.den for hs in f.terms.values()))
    # bucket by x-exponent; the y-exponent lives inside rest
    by_p: dict = {}
    for e, hs in f.terms.items():
        s = den // hs.den
        by_p.setdefault(e[ix], {})[e[:ix] + e[ix + 1:]] = [
            s * n for n in hs.nums]
    iy_rest = iy if iy < ix else iy - 1
    pmin = min(by_p)
    terms = {}
    prev: dict = {}
    for p in range(max(by_p), pmin - 2, -1):
        row = dict(by_p.get(p, {}))
        for rest, nums in prev.items():
            rest = rest[:iy_rest] + (rest[iy_rest] + 1,) + rest[iy_rest + 1:]
            cur = row.get(rest)
            row[rest] = (nums if cur is None
                         else [a + b for a, b in zip(cur, nums)])
        prev = {r: nums for r, nums in row.items() if any(nums)}
        if p == pmin - 1:
            if prev:
                raise ValueError("not divisible: nonzero remainder")
            break
        for rest, nums in prev.items():
            terms[rest[:ix] + (p - 1,) + rest[ix:]] = _from_ints(den, nums)
    # quotient exponents along x sit one below f's; widen that bound by one
    bnds = list(f.window.bounds)
    lo, hi = bnds[ix]
    bnds[ix] = (lo - 1, hi)
    return KernelFn(f.region, terms, Window(tuple(bnds)), f.K)
