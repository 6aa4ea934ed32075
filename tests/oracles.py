"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: plain integer dict polynomials,
bounded-part partition recursions, trial division, schoolbook series
products and back-substitution inverses over ``Fraction``, the Wronskian
as a subset-minor expansion, as a sum over term tuples and by Bareiss
elimination of the derivative matrix, and Gaussian elimination over
``Fraction``.  None of it shares arithmetic with the package under test:
the series oracles use only the public ``QSeries`` constructors, views and
ring operators (the Bareiss oracle also the package's reduction to
distinct leading exponents, which it does not test), the residue
indicator reads the package's residue signs (``chi_signs``) one integer
at a time, the s = 2 product character multiplies one geometric series
per retained factor, the eta power is the package's eta series raised
by repeated squaring (series products, none of the power recurrence it
checks), and the lattice-sum terms come from a box
enumeration that writes the paper's summands out in full.  The walk
windows are each coordinate's picks built as the sums are written, by n
for the A_2k^(2) sum and by scanning every integer for the per-model sum,
fed to a plain walk that weighs each tuple at its leaf.  Two series are
compared below a bound term by term on their common grid, and the
A_2k^(2) constant ``c_k``, the weight of a lattice tuple and its exponent
are their products and sums written out.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil, gcd, isqrt, lcm
import random


def poly_mul(a, b, cutoff):
    """Multiply {exponent: coeff} dicts over the integers, dropping >= cutoff."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < cutoff:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def binomial_factors_poly(steps, sign, cutoff):
    """Expansion of prod_{n in steps} (1 + sign q^n), left to right,
    truncated below cutoff.  On the grid q^(1/D), pass the steps in units
    of 1/D and the least integer at or above D times the precision as
    cutoff."""
    acc = {0: 1}
    for n in steps:
        acc = poly_mul(acc, {0: 1, n: sign}, cutoff)
    return acc


def euler_factors_poly(count, cutoff):
    """Expansion of prod_{i=1..count} (1 - q^i) truncated below cutoff."""
    return binomial_factors_poly(range(1, count + 1), -1, cutoff)


def cube_sum_terms(order):
    """Jacobi's cube sum ``q^(1/8) sum_{m>=0} (-1)^m (2m+1) q^(m(m+1)/2)``
    as (exponent, coefficient) pairs below ``order``."""
    terms = []
    m = 0
    while (e := Fraction(1, 8) + Fraction(m * (m + 1), 2)) < order:
        terms.append((e, (-1) ** m * (2 * m + 1)))
        m += 1
    return terms


def unary_theta_terms(modulus, signs, scale, precision, weighted):
    """(exponent, coefficient) pairs of ``sum_{v>=1} signs[v % modulus] *
    v^weighted * q^(v^2/scale)`` below ``precision``, checking every
    integer v in turn."""
    terms = []
    v = 1
    while Fraction(v * v, scale) < precision:
        sign = signs.get(v % modulus, 0)
        if sign:
            terms.append((Fraction(v * v, scale), sign * (v if weighted else 1)))
        v += 1
    return terms


def eta_power_by_squaring(m, order):
    """``eta^m`` exact below ``order`` by repeated squaring of the package's
    eta series: ``eta_series(order - (m - 1)/24) ** m``, which has
    precision ``order``; the empty series at a vacuous order (at or below
    ``m/24``) and 1 for ``m = 0``."""
    from qetakit import QSeries, eta_series
    if not order > Fraction(m, 24):
        return QSeries.zero(order)
    if m == 0:
        return QSeries.one(order)
    return eta_series(order - Fraction(m - 1, 24)) ** m


def geometric_poly(step, cutoff):
    """1 + q^step + q^(2 step) + ... truncated below cutoff."""
    return {e: 1 for e in range(0, cutoff, step)}


@lru_cache(maxsize=None)
def partition_count(n, max_part=None):
    """Number of partitions of n with parts <= max_part (bounded recursion)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return partition_count(n, max_part - 1) + partition_count(n - max_part,
                                                              max_part)


@lru_cache(maxsize=None)
def distinct_partition_count(n, max_part=None):
    """Partitions of n into distinct parts <= max_part."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return (distinct_partition_count(n, max_part - 1)
            + distinct_partition_count(n - max_part, min(max_part - 1,
                                                         n - max_part)))


def sigma1(n):
    """Sum of divisors by trial division."""
    return sum(d for d in range(1, n + 1) if n % d == 0)


def random_series(rng: random.Random, *, max_terms=5, allow_zero=True):
    """A small random QSeries with fractional exponents and a sane precision."""
    from qetakit import QSeries

    den = rng.choice((1, 1, 2, 3, 4, 6))
    n_terms = rng.randint(0 if allow_zero else 1, max_terms)
    terms = []
    for _ in range(n_terms):
        e = Fraction(rng.randint(-8, 14), den)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms.append((e, c))
    top = max((e for e, _ in terms), default=Fraction(0))
    precision = top + Fraction(rng.randint(1, 4), rng.choice((1, 2)))
    series = QSeries.from_terms(terms, precision)
    if not allow_zero and series.is_zero:
        return QSeries.monomial(1, precision - 1, precision)
    return series


def equal_up_to_aligned(x, y, bound):
    """True iff the series ``x`` and ``y`` agree below ``bound``: each put
    on the grid ``1/lcm(D_x, D_y)``, keyed by exponent times that grid, and
    compared key by key, whatever their canonical forms."""
    D = lcm(x.grid_denominator, y.grid_denominator)

    def aligned(series):
        d, a = series.grid_denominator, series.offset
        return {(a + n) * (D // d): c for n, c in series.coefficients.items()
                if Fraction(a + n, d) < bound}

    return aligned(x) == aligned(y)


def c_k_double_product(k):
    """``1/(2^(k(k-1)) prod_{i<j} (i-j)(i+j-1))`` over the pairs
    ``1 <= i < j <= k``."""
    denom = 2 ** (k * (k - 1))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            denom *= (i - j) * (i + j - 1)
    return Fraction(1, denom)


def empirical_constant_terms(lhs, rhs, order):
    """``(constant, first_mismatch, terms_compared)`` of ``rhs`` against
    ``lhs`` below ``order`` on ``Fraction`` term lists: the constant is the
    ratio of the leading coefficients (None when the leading exponents
    differ or one side has no term below ``order``, and the lowest exponent
    of either side is the mismatch); ValueError when neither side has a
    term below ``order``."""
    left = {e: c for e, c in lhs.terms() if e < order}
    right = {e: c for e, c in rhs.terms() if e < order}
    exponents = sorted(left.keys() | right.keys())
    if not exponents:
        raise ValueError("no comparable terms")
    if exponents[0] not in left or exponents[0] not in right:
        return None, exponents[0], len(exponents)
    constant = right[exponents[0]] / left[exponents[0]]
    mismatches = [e for e in exponents
                  if constant * left.get(e, 0) != right.get(e, 0)]
    return constant, (mismatches[0] if mismatches else None), len(exponents)


def wronskian_subset_minor(entries):
    """The q d/dq Wronskian by column-wise expansion over row-subset minors.

    ``layer[mask]`` is the minor on the row set ``mask`` and the columns
    placed so far; placing column c multiplies each minor by one entry of a
    row outside its set, so the whole determinant costs k * (2^(k-1) - 1)
    series products and never divides.
    """
    entries = list(entries)
    k = len(entries)
    rows = [entries]
    for _ in range(k - 1):
        rows.append([y.theta_derive() for y in rows[-1]])
    layer = {1 << r: rows[r][0] for r in range(k)}
    for c in range(1, k):
        new = {}
        for mask, minor in layer.items():
            for r in range(k):
                bit = 1 << r
                if mask & bit:
                    continue
                term = rows[r][c] * minor
                if ((mask & (bit - 1)).bit_count() + c) & 1:
                    term = -term
                key = mask | bit
                prev = new.get(key)
                new[key] = term if prev is None else prev + term
        layer = new
    return layer[(1 << k) - 1]


def wronskian_bareiss(entries):
    """The q d/dq Wronskian by Bareiss elimination of the full derivative
    matrix, in O(k^3) series products.

    After the package's own reduction to distinct leading exponents
    ``l_i``, column i is shifted to ``g_i = q^(-l_i) y_i``, so row r holds
    ``q^(-l_i) theta^r y_i``; every leading principal minor then has a
    nonzero constant term (a Vandermonde of the ``l_i``), each step divides
    exactly by the previous pivot through its inverse, and
    ``W = (last pivot) * q^(l_1 + ... + l_k)``.
    """
    from qetakit import QSeries
    from qetakit.wronskian import _distinct_leading_exponents

    entries = list(entries)
    k = len(entries)
    if k == 1:
        return entries[0]
    columns = _distinct_leading_exponents(entries)
    lows = [_low_exponent(y) for y in columns]
    if any(y.is_zero for y in columns):
        return QSeries.zero(sum(lows))
    rows = [columns]
    for _ in range(k - 1):
        rows.append([y.theta_derive() for y in rows[-1]])
    a = [[y.shift(-low) for y, low in zip(row, lows)] for row in rows]
    for p in range(k - 1):
        pivot_row = a[p]
        pivot = pivot_row[p]
        scale = a[p - 1][p - 1].invert() if p else None
        for row in a[p + 1:]:
            lead = row[p]
            for j in range(p + 1, k):
                x = pivot * row[j] - lead * pivot_row[j]
                row[j] = x if scale is None else x * scale
    return a[k - 1][k - 1].shift(sum(lows))


def _low_exponent(x):
    lead = x.lowest_term()
    return x.precision if lead is None else Fraction(lead[0])


def series_mul_fraction(x, y):
    """``x * y`` by the schoolbook loop over ``Fraction`` coefficients.

    Every pair of terms is multiplied on the lcm grid and summed below the
    product's precision ``min(P_x + low_y, P_y + low_x)``; the result goes
    through the public constructor.
    """
    from qetakit import QSeries

    P = min(Fraction(x.precision) + _low_exponent(y),
            Fraction(y.precision) + _low_exponent(x))
    if x.is_zero or y.is_zero:
        return QSeries.zero(P)
    D = lcm(x.grid_denominator, y.grid_denominator)
    fx = D // x.grid_denominator
    fy = D // y.grid_denominator
    smax = ceil(P * D) - 1
    xs = [((x.offset + n) * fx, Fraction(c))
          for n, c in x.coefficients.items()]
    ys = sorted(((y.offset + n) * fy, Fraction(c))
                for n, c in y.coefficients.items())
    acc = {}
    for sx, cx in xs:
        for sy, cy in ys:
            if sx + sy > smax:
                break
            acc[sx + sy] = acc.get(sx + sy, 0) + cx * cy
    return QSeries(D, 0, acc, P)


def series_invert_fraction(x):
    """``1/x`` by back-substitution over ``Fraction`` coefficients on the
    reduced stride of the steps; the precision of the result is
    ``P - 2 * low``."""
    from qetakit import QSeries

    coeffs = {n: Fraction(c) for n, c in x.coefficients.items()}
    if not coeffs:
        raise ZeroDivisionError("series is zero up to its precision")
    D, a = x.grid_denominator, x.offset
    e = Fraction(a, D)
    rel = Fraction(x.precision) - e
    c0 = coeffs[0]
    if len(coeffs) == 1:
        return QSeries.monomial(1 / c0, -e, rel - e)
    g = gcd(*coeffs)
    count = ceil(rel * Fraction(D, g))
    inner = sorted((n // g, c) for n, c in coeffs.items()
                   if n and n // g < count)
    w = [Fraction(0)] * count
    w[0] = 1 / c0
    for m in range(1, count):
        total = sum(cj * w[m - j] for j, cj in inner if j <= m)
        w[m] = -total / c0
    return QSeries(D, -a, {m * g: w[m] for m in range(count) if w[m]},
                   rel - e)


def wronskian_vandermonde_expand(entries):
    """The q d/dq Wronskian as a direct sum over one term from each series.

    Each choice of exponents (e_1, ..., e_k) contributes the Vandermonde
    ``prod_{j<i}(e_i - e_j)`` times the product of the chosen coefficients
    at ``q^(e_1+...+e_k)``; the result is exact below
    ``sum_i low_i + min_i (P_i - low_i)``.
    """
    from qetakit import QSeries

    entries = list(entries)
    k = len(entries)
    if k == 0:
        raise ValueError("wronskian needs at least one series")
    lows = [_low_exponent(y) for y in entries]
    total_low = sum(lows)
    bound = min(Fraction(y.precision) - low
                for y, low in zip(entries, lows)) + total_low
    if any(y.is_zero for y in entries):
        return QSeries.zero(bound)
    term_lists = [y.terms() for y in entries]
    suffix_low = [Fraction(0)] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix_low[i] = suffix_low[i + 1] + lows[i]
    acc = {}
    chosen_e = [None] * k
    chosen_c = [None] * k

    def descend(i, partial):
        if i == k:
            weight = Fraction(1)
            for a in range(k):
                for b in range(a):
                    weight *= chosen_e[a] - chosen_e[b]
            for c in chosen_c:
                weight *= c
            acc[partial] = acc.get(partial, 0) + weight
            return
        for e, c in term_lists[i]:
            if not partial + e + suffix_low[i + 1] < bound:
                break
            chosen_e[i] = e
            chosen_c[i] = c
            descend(i + 1, partial + e)

    descend(0, Fraction(0))
    return QSeries.from_terms(acc.items(), bound)


def matrix_determinant(matrix):
    """Exact determinant of a square rational matrix by Gaussian
    elimination over ``Fraction`` with row exchanges."""
    a = [[Fraction(x) for x in row] for row in matrix]
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError(f"matrix must be {k}x{k}")
    det = Fraction(1)
    for p in range(k):
        r = next((r for r in range(p, k) if a[r][p]), None)
        if r is None:
            return Fraction(0)
        if r != p:
            a[p], a[r] = a[r], a[p]
            det = -det
        det *= a[p][p]
        for row in a[p + 1:]:
            factor = row[p] / a[p][p]
            for j in range(p, k):
                row[j] -= factor * a[p][j]
    return det


def scale_by_matrix(matrix, entries):
    """Entrywise rational linear combinations of series: row i of the
    result is ``sum_j matrix[i][j] * entries[j]``."""
    entries = list(entries)
    k = len(entries)
    if len(matrix) != k or any(len(row) != k for row in matrix):
        raise ValueError(f"matrix must be {k}x{k}")
    out = []
    for row in matrix:
        acc = None
        for coeff, y in zip(row, entries):
            term = y * Fraction(coeff)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def chi_indicator(model, label, r):
    """The +-1/0 residue-class indicator of a label at an integer r."""
    from qetakit import chi_signs

    return chi_signs(model, label).get(int(r) % (2 * model.s * model.t), 0)


def character_product_geometric(k, i, order):
    """The s = 2 product character of label (1, i), 1 <= i <= 2k, as a
    left fold of one truncated geometric series ``1/(1 - q^n)`` per
    retained n (n not congruent to 0, i, -i modulo 2k+1), shifted by
    ``q^(h_bar)``; exact below ``order``."""
    from qetakit import QSeries, make_model, weight_label

    modulus = 2 * k + 1
    hbar = weight_label(make_model(2, modulus), 1, i).h_bar
    rel = Fraction(order) - hbar
    excluded = {0, i % modulus, -i % modulus}
    acc = QSeries.one(rel)
    n = 1
    while n < rel:
        if n % modulus not in excluded:
            acc = acc * QSeries.from_terms(
                ((j, 1) for j in range(0, ceil(rel), n) if j < rel), rel)
        n += 1
    return acc.shift(hbar)


def _box_terms(columns, exponent, order, sign=1):
    """(tuple, exponent, weight) for every pick of one ``(n, sign, d)``
    from each column with ``exponent(tuple) < order`` and a nonzero weight
    ``sign * prod(signs) * prod_{i<j}(d_i^2 - d_j^2)``, in the order of
    ``itertools.product``."""
    terms = []
    for picks in product(*columns):
        n_vec = tuple(n for n, _, _ in picks)
        e = exponent(n_vec)
        if not e < order:
            continue
        weight = sign
        for _, s, _ in picks:
            weight *= s
        for i in range(len(picks)):
            for j in range(i + 1, len(picks)):
                weight *= picks[i][2] ** 2 - picks[j][2] ** 2
        if weight:
            terms.append((n_vec, e, weight))
    return terms


def general_terms_box(model, order):
    """The per-model lattice sum's terms below ``order``, by brute force.

    Coordinate j runs over every integer ``0 <= v <= sqrt(cap)``, where
    ``cap`` is the largest integer below ``4st * order``, and keeps the
    values where the indicator of the j-th label ``(m, n)`` is nonzero:
    +1 on ``v = +-(ns - mt)`` and -1 on ``v = +-(ns + mt)`` mod 2st.  A
    tuple is weighted by its signs times ``prod_{j<i}(v_i^2 - v_j^2)`` at
    ``q^(sum v^2 / 4st)``.
    """
    from qetakit import distinct_weights

    order = Fraction(order)
    s, t = model.s, model.t
    modulus, st4 = 2 * s * t, 4 * s * t
    top = isqrt(ceil(order * st4) - 1)
    columns = []
    for label in distinct_weights(model):
        a, b = label.n * s - label.m * t, label.n * s + label.m * t
        column = []
        for v in range(top + 1):
            if (v - a) % modulus == 0 or (v + a) % modulus == 0:
                column.append((v, 1, v))
            elif (v - b) % modulus == 0 or (v + b) % modulus == 0:
                column.append((v, -1, v))
        columns.append(column)
    k = model.k
    # prod_{j<i} is prod_{i<j} times the sign of reversing k coordinates
    return _box_terms(columns, lambda vs: Fraction(sum(v * v for v in vs),
                                                   st4), order,
                      (-1) ** (k * (k - 1) // 2))


def chi_d(k, n_vec):
    """The A_2k^(2) pairwise weight ``prod_{i<j} (d_i^2 - d_j^2)`` with
    ``d_i = 2i - 1 + n_i (4k + 2)``; ValueError unless ``n_vec`` has k
    entries."""
    if len(n_vec) != k:
        raise ValueError(f"expected a {k}-tuple, got {len(n_vec)} entries")
    d = [2 * i - 1 + n * (4 * k + 2) for i, n in enumerate(n_vec, start=1)]
    weight = 1
    for i in range(k):
        for j in range(i + 1, k):
            weight *= d[i] ** 2 - d[j] ** 2
    return weight


def lattice_exponent(k, n_vec):
    """The A_2k^(2) exponent ``(2k^2-k)/24 + sum_i ((2k+1)n_i^2 +
    (2i-1)n_i)/2``; ValueError unless ``n_vec`` has k entries."""
    if len(n_vec) != k:
        raise ValueError(f"expected a {k}-tuple, got {len(n_vec)} entries")
    return Fraction(2 * k * k - k, 24) + Fraction(sum(
        (2 * k + 1) * n * n + (2 * i - 1) * n
        for i, n in enumerate(n_vec, start=1)), 2)


def macdonald_terms_box(k, order):
    """The A_2k^(2) Macdonald sum's terms below ``order``, without its
    prefactor, by brute force over every ``|n_i| <= sqrt(cap)``, where
    ``cap`` is the largest integer below twice the order's excess over
    ``(2k^2 - k)/24``: weight ``(-1)^(n_1+...+n_k) prod_{i<j}(d_i^2 -
    d_j^2)`` with ``d_i = 2i - 1 + (4k + 2) n_i``, at exponent
    ``(2k^2 - k)/24 + sum_i ((2k + 1) n_i^2 + (2i - 1) n_i)/2``.
    """
    order = Fraction(order)
    base = Fraction(2 * k * k - k, 24)
    if not order > base:
        return []
    top = isqrt(ceil(2 * (order - base)) - 1)
    columns = [[(n, -1 if n % 2 else 1, 2 * i - 1 + (4 * k + 2) * n)
                for n in range(-top, top + 1)] for i in range(1, k + 1)]
    return _box_terms(columns, lambda ns: base + Fraction(sum(
        (2 * k + 1) * n * n + (2 * i - 1) * n
        for i, n in enumerate(ns, start=1)), 2), order)


def walk_leaf_weights(windows, cap, exponent, sign):
    """The terms of a tuple walk like the package's
    (``qetakit.identities._walk``), with every weight computed at its leaf,
    as a ``Fraction``, and a cost of its own beside each square: each pick
    ``(cost, coordinate, sign, square)`` is taken while the running cost
    stays within ``cap``, and a full tuple of nonzero weight ``sign *
    prod(signs) * prod_{j<i}(square_i - square_j)`` is the term
    ``(coordinates, exponent(cost), weight)``."""
    terms = []

    def descend(picks, cost):
        if len(picks) == len(windows):
            weight = sign
            for i, (_, _, s, square) in enumerate(picks):
                weight *= s
                for _, _, _, earlier in picks[:i]:
                    weight *= square - earlier
            if weight:
                terms.append((tuple(n for _, n, _, _ in picks),
                              exponent(cost), Fraction(weight)))
            return
        for pick in windows[len(picks)]:
            if cost + pick[0] > cap:
                break
            descend(picks + [pick], cost + pick[0])

    descend([], 0)
    return terms


def general_walk_windows(model, order):
    """``(windows, cap, exponent, sign)`` of the per-model sum's tuple walk
    (:func:`walk_leaf_weights`), scanned one integer at a time: window
    j has every integer ``v >= 0`` with ``v^2 <= cap``, the largest integer
    below ``4st * order``, where the j-th label's indicator is nonzero, as
    picks ``(v^2, v, indicator, v^2)`` in ascending order."""
    from qetakit import distinct_weights

    st4 = 4 * model.s * model.t
    cap = ceil(Fraction(order) * st4) - 1
    windows = []
    for label in distinct_weights(model):
        window = []
        v = 0
        while v * v <= cap:
            sign = chi_indicator(model, label, v)
            if sign:
                window.append((v * v, v, sign, v * v))
            v += 1
        windows.append(window)
    return windows, cap, lambda cost: Fraction(cost, st4), 1


def macdonald_walk_windows(k, order):
    """``(windows, cap, exponent, sign)`` of the A_2k^(2) sum's tuple walk
    (:func:`walk_leaf_weights`) indexed by the lattice n: window i has
    every integer n, found by stepping outwards from 0, whose cost
    ``(2k+1) n^2 + (2i-1) n`` (twice its exponent above ``(2k^2-k)/24``)
    is at most ``cap``, the largest integer below twice the order's
    excess, as picks ``(cost, n, (-1)^n, d_i^2)`` sorted by cost, with
    ``d_i = 2i - 1 + n (4k + 2)``."""
    base = Fraction(2 * k * k - k, 24)
    cap = ceil(2 * (Fraction(order) - base)) - 1
    windows = []
    for i in range(1, k + 1):
        window = []
        for n, step in ((0, 1), (-1, -1)):
            while (cost := (2 * k + 1) * n * n + (2 * i - 1) * n) <= cap:
                window.append((cost, n, (-1) ** (n % 2),
                               (2 * i - 1 + n * (4 * k + 2)) ** 2))
                n += step
        windows.append(sorted(window))
    return (windows, cap, lambda cost: base + Fraction(cost, 2),
            (-1) ** (k * (k - 1) // 2))
