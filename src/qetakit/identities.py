"""Lattice-sum identity builders, the identity table and its verifier.

Two families of weighted lattice sums are built here: the k-fold signed sum
with the pairwise square-difference weight (for the s = 2 family) and the
general sum over residue-class supports weighted by a Vandermonde of squares
(one identity per minimal model).  Each verified identity is one entry of
:data:`IDENTITIES`: its params, the eta power of its lhs (the power over 24
is its leading exponent), its rhs builder, its predicted constant, and, for
a lattice sum, the same rhs built by tuple enumeration and as one
Wronskian.  Verification fixes the constant from the leading nonzero
coefficients, then every remaining coefficient below the requested order
must match exactly against that single constant, and the constant must
equal the prediction.  The predictions are 1 for Euler and Jacobi, 7/256
for Weber and ``(-1)^(k(k-1)/2)`` for Macdonald.  A per-model Wronskian
leads with the Vandermonde of its entries' leading exponents, and the
characters, the normalized characters and the chi-form numerators each
lead with coefficient 1, so ``wronskian_raw`` and ``wronskian_normalized``
predict the Vandermonde of the h_bar values and ``denominator``
``(4st)^(k(k-1)/2)`` times it; eta powers lead with 1.  A check ends
in a :class:`VerificationReport`, a ``NamedTuple`` like :class:`Identity`
and :class:`LatticeTerm`, so reports compare by value and pickle across
the worker processes of a parallel suite.

Both families are one tuple walk (``_walk``) over per-coordinate windows,
each a :func:`~qetakit.eta.theta_window`: the integers v >= 1 in signed
residue classes, as picks ``(cost, coordinate, sign, square)`` with cost
and square ``v^2`` (Macdonald's coordinate is its lattice index n).  The
walk compares integer partial sums of squares with one integer cap,
pruned by the least cost of the coordinates still to pick, and weighs a
tuple by its signs times the :func:`~qetakit.wronskian.vandermonde` of its
squares, all in ints; only an emitted term's exponent and weight are
rationals.  ``general_terms`` and ``macdonald_terms`` only build windows.

Each sum is built on one of two paths, chosen by one rule
(``_lattice_entry``) from its headroom, the order minus the sum's leading
exponent:

* At a headroom of :data:`LATTICE_DETERMINANT_HEADROOM` or more, the sum is
  one Wronskian.  The Vandermonde of the squares is ``det[x_j^(i-1)]`` and
  multilinear, so the k-fold sum is the k x k determinant whose row i,
  column j is ``sum_v chi_j(v) v^(2(i-1)) q^(v^2/4st)``; that row is
  ``(4st)^(i-1)`` times the (i-1)-th ``q d/dq`` derivative of the chi-form
  numerator of label j, so the sum is ``(4st)^(k(k-1)/2)`` times the
  Wronskian of those numerators.  The s = 2 sum is the (2, 2k+1) model's.
* Below it, the tuples are walked; walked at any headroom they are the
  independent oracle of the Wronskian path.  An entry's ``tuples`` and
  ``determinant`` build its sum each way at any headroom, and
  :func:`audit_identity` compares the two.

The determinant costs O(k^2) series products even when few tuples
contribute, while the tuple count grows like order^(k/2); the crossover
constant is the measured headroom past which the determinant wins.

The three per-model identities are one theorem computed three ways.  The
normalized character (eta times the double-sum character) equals the
chi-form numerator term for term, so ``wronskian_normalized`` and the
Wronskian path of ``denominator`` take the same determinant from two
builders, a factor ``(4st)^(k(k-1)/2)`` apart; and ``W(eta chi) =
eta^k W(chi)`` ties ``wronskian_raw`` to both.  The builders stay separate
on purpose, so that each checks the others.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, NamedTuple, Optional

from .eta import ETA_EXPONENT, WEBER_F2_EXPONENT, WEBER_F_EXPONENT, \
    eta_power, euler_product, jacobi_cube_series, theta_window, weber_series
from .minimal_models import _chi_signs, chi_numerator, distinct_weights, \
    make_model, character_double_sum, normalized_character
from .rationals import Rational, largest_int_below, order_above, rat_str, \
    rational
from .series import PrecisionError, QSeries
from .wronskian import vandermonde, wronskian, wronskian_entry_precision

#: A lattice sum whose headroom (order minus leading exponent) is at least
#: this is built as one Wronskian of chi-form numerators; below it the
#: tuples are enumerated, which is faster while few of them contribute.
#: Swept over one model per k = 2..14 (the largest s) and the s = 2 models
#: up to k = 9 at headrooms 4-24 in steps of 2 (Python 3.11, 2-vCPU Intel
#: Xeon, each path best of 3 with cold caches, median of 5 sweeps), the
#: constants 10/12/14/16/18/20 summed to 0.56/0.55/0.53/0.54/0.57/0.63 s
#: with the recursion on integer maps, against 0.81/0.77/0.73/0.71/0.71/
#: 0.75 s for the recursion on one series per entry on the same host.  14
#: wins by 0.035 s, less than the 0.07 s spread of the sweeps at 18, so 18
#: stays.  The (2,17), (2,19) and (2,23) sums still take 1.3-2.5x longer
#: by the Wronskian than by their tuples at headroom 18.
LATTICE_DETERMINANT_HEADROOM = 18


def _denominator_power(k):
    """Eta power of a rank-k lattice sum and of a normalized Wronskian of k
    characters; their leading exponent is this over 24."""
    return (2 * k - 1) * k


class LatticeTerm(NamedTuple):
    """One summand of a k-fold lattice sum."""
    n_vec: tuple
    exponent: object  # exact rational
    weight: object    # exact rational (sign times the combinatorial weight)


class VerificationReport(NamedTuple):
    """Outcome of one identity check at a given truncation order."""
    identity: str
    params: dict
    order: object
    constant: Optional[object]
    match: bool
    first_mismatch: Optional[object]
    terms_compared: int

    def to_line(self):
        fields = self.to_dict()
        fields["params"] = ",".join(
            f"{k}={v}" for k, v in fields["params"].items()) or "-"
        fields["match"] = "true" if self.match else "false"
        return " ".join(f"{key}={'-' if value is None else value}"
                        for key, value in fields.items())

    def to_dict(self):
        return {
            "identity": self.identity,
            "params": {k: int(v) for k, v in sorted(self.params.items())},
            "order": rat_str(self.order),
            "constant": rat_str(self.constant) if self.constant is not None else None,
            "match": self.match,
            "first_mismatch": (rat_str(self.first_mismatch)
                               if self.first_mismatch is not None else None),
            "terms_compared": self.terms_compared,
        }


# ----------------------------------------------------------------------
# the tuple walk
# ----------------------------------------------------------------------

def _walk(windows, cap, exponent, sign):
    """Every tuple that takes one pick ``(cost, coordinate, sign, square)``
    from each window (sorted by cost) and whose costs sum to at most the
    integer ``cap``, lexicographic in the windows' order.  A tuple of
    nonzero weight ``sign * prod(pick signs) * vandermonde(squares)``, all
    in ints, is a term at ``exponent(cost sum)``.  A pick is taken while
    the least cost of any tuple containing it stays within the cap, and its
    window is left at the first pick past it, so no contributing tuple is
    missed."""
    if not all(windows):
        return []
    k = len(windows)
    floor = [0] * (k + 1)  # least cost of the coordinates from i on
    for i in range(k - 1, -1, -1):
        floor[i] = floor[i + 1] + windows[i][0][0]
    terms = []
    n_vec = [0] * k
    squares = [0] * k

    def descend(i, cost, sign):
        if i == k:
            weight = vandermonde(squares)
            if weight:
                terms.append(LatticeTerm(tuple(n_vec), exponent(cost),
                                         Rational(sign * weight)))
            return
        room = cap - floor[i + 1]
        for c, n, s, square in windows[i]:
            if cost + c > room:
                break
            n_vec[i] = n
            squares[i] = square
            descend(i + 1, cost + c, sign * s)

    descend(0, 0, sign)
    return terms


def _sum_terms(terms, order):
    """The sum of lattice terms below ``order``, as integer numerators over
    the least common denominator of their exponents."""
    scale = lcm(*{t.exponent.denominator for t in terms})
    num = {}
    for t in terms:
        e = t.exponent
        key = e.numerator * (scale // e.denominator)
        num[key] = num.get(key, 0) + t.weight.numerator
    return QSeries._from_numerators(
        scale, 0, {key: c for key, c in num.items() if c}, 1, order)


# ----------------------------------------------------------------------
# the s = 2 family: signed sum with square-difference weights
# ----------------------------------------------------------------------

def _pair_sign(k):
    """``(-1)^(k(k-1)/2)``, the sign of reversing k coordinates, which
    turns a Vandermonde into a product of pairwise differences."""
    return -1 if (k * (k - 1) // 2) % 2 else 1


def chi_d(k, n_vec):
    """Pairwise weight ``prod_{i<j} (d_i^2 - d_j^2)`` with
    ``d_i = 2i - 1 + n_i (4k + 2)``."""
    k = int(k)
    if len(n_vec) != k:
        raise ValueError(f"expected a {k}-tuple, got {len(n_vec)} entries")
    return _pair_sign(k) * vandermonde(
        [(2 * i + 1 + n * (4 * k + 2)) ** 2 for i, n in enumerate(n_vec)])


def lattice_exponent(k, n_vec):
    """Exponent ``(2k^2-k)/24 + sum_i ((2k+1)n_i^2 + (2i-1)n_i)/2``."""
    k = int(k)
    if len(n_vec) != k:
        raise ValueError(f"expected a {k}-tuple, got {len(n_vec)} entries")
    rel = 0
    for i, n in enumerate(n_vec, start=1):
        rel += (2 * k + 1) * n * n + (2 * i - 1) * n
    return Rational(2 * k * k - k, 24) + Rational(rel, 2)


def c_k_constant(k):
    """The closed-form normalisation ``1/(2^{k(k-1)} prod_{i<j}(i-j)(i+j-1))``,
    which is ``1/chi_d`` of the zero tuple: there ``d_i = 2i - 1``, and
    ``d_i^2 - d_j^2 = 4(i-j)(i+j-1)``."""
    k = int(k)
    if k < 2:
        raise ValueError("k must be >= 2")
    return Rational(1, chi_d(k, (0,) * k))


def macdonald_terms(k, order):
    """Every lattice term with exponent below ``order``, without the
    closed-form prefactor; deterministic lexicographic enumeration.

    The exponent is ``sum_i d_i^2 / (16k+8)``, so coordinate i is a
    :func:`~qetakit.eta.theta_window` mod 8k+4 of ``v = |d_i|``: with
    ``c = 2i - 1``, the classes +-c (even n, sign +1) and +-(c + 4k + 2)
    (odd n, sign -1), and ``n = (+-v - c)/(4k + 2)``.
    """
    k = int(k)
    if k < 2:
        raise ValueError("k must be >= 2")
    order = rational(order)
    step = 4 * k + 2
    scale = 4 * step
    # a tuple's sum of squares is an integer, at most this cap
    cap = largest_int_below(order * scale)
    windows = []
    for c in range(1, 2 * k, 2):
        signs = {c: 1, 2 * step - c: 1, c + step: -1, step - c: -1}
        windows.append([(cost, ((v if v % step == c else -v) - c) // step,
                         sign, square) for cost, v, sign, square
                        in theta_window(2 * step, signs, cap)])
    return _walk(windows, cap, lambda cost: Rational(cost, scale),
                 _pair_sign(k))


def _macdonald_prefactor(k):
    """The closed-form prefactor ``c_k_constant(k) * (-1)^(k(k-1)/2)``."""
    return c_k_constant(k) * _pair_sign(k)


def macdonald_rhs(k, order):
    """The full signed lattice sum for the s = 2 family, including the
    closed-form prefactor ``c_k_constant(k) * (-1)^(k(k-1)/2)``.

    The prefactor-free sum equals the per-model sum of the (2, 2k+1) model
    term for term (``|d_i|`` runs over the support of label
    ``(1, k + 1 - i)``, so the columns come in reverse order, and the two
    ``(-1)^(k(k-1)/2)`` signs cancel), so at a headroom of
    ``LATTICE_DETERMINANT_HEADROOM`` or more it is that model's Wronskian
    form; below it, the tuples of :func:`macdonald_terms` are summed.
    """
    return IDENTITIES["macdonald"].rhs(order, k=k)


# ----------------------------------------------------------------------
# the general family: residue-class supports with Vandermonde weights
# ----------------------------------------------------------------------

def general_terms(model, order):
    """Lattice terms of the per-model sum: tuples from the indicator
    supports, weighted by the sign product times the Vandermonde of the
    squares, with exponent ``sum n_i^2 / (4st)`` below ``order``."""
    order = order_above(order, 0)
    st4 = 4 * model.s * model.t
    # a tuple's sum of squares is an integer, at most this cap
    cap = largest_int_below(order * st4)
    windows = [theta_window(2 * model.s * model.t, _chi_signs(model, lab), cap)
               for lab in distinct_weights(model)]
    return _walk(windows, cap, lambda cost: Rational(cost, st4), 1)


def _lattice_determinant(model, order):
    """The per-model sum as ``(4st)^(k(k-1)/2)`` times the Wronskian of the
    chi-form numerators, exact below ``order`` (which must exceed the sum
    of their leading exponents, ``(2k-1)k/24``)."""
    labels = distinct_weights(model)
    # a numerator is the normalized character, which starts at h_bar + 1/24
    precision = wronskian_entry_precision(
        [lab.h_bar + Rational(1, 24) for lab in labels], order)
    numerators = [chi_numerator(model, lab, precision) for lab in labels]
    k = model.k
    st4 = 4 * model.s * model.t
    return wronskian(numerators) * st4 ** (k * (k - 1) // 2)


def general_rhs(model, order):
    """The per-model lattice sum as a series, exact below ``order``.

    At a headroom (``order`` minus the sum's leading exponent
    ``(2k-1)k/24``) of ``LATTICE_DETERMINANT_HEADROOM`` or more it is built
    as one Wronskian of the chi-form numerators; below it, the tuples of
    :func:`general_terms` are summed.
    """
    return IDENTITIES["denominator"].rhs(order, s=model.s, t=model.t)


# ----------------------------------------------------------------------
# verification drivers
# ----------------------------------------------------------------------

def empirical_constant(lhs, rhs, order, *, identity="ratio", params=None):
    """Fix ``constant = leading(rhs)/leading(lhs)`` and check
    ``rhs = constant * lhs`` coefficientwise below ``order``.  Leading
    terms at different exponents, or a side with no term below ``order``,
    are a mismatch with no constant at the lowest exponent of either side;
    ValueError when neither side has a term below ``order``.

    Both series are read as integer numerators on one grid, so with leading
    numerators ``l0`` and ``r0`` a step matches when ``r * l0 == r0 * l``;
    rationals are built only for the constant and the first mismatch."""
    order = rational(order)
    if order > lhs.precision or order > rhs.precision:
        raise PrecisionError(f"insufficient precision for comparison at "
                             f"order {order}")
    params = dict(params or {})
    D = lcm(lhs.grid_denominator, rhs.grid_denominator)
    smax = largest_int_below(order * D)
    left = lhs._on_grid(D, 0, smax)
    right = rhs._on_grid(D, 0, smax)
    steps = left.keys() | right.keys()
    if not steps:
        raise ValueError(f"no comparable terms below order {order}; "
                         "raise the order above the leading exponent")
    s0 = min(steps)
    if s0 not in left or s0 not in right:
        return VerificationReport(identity, params, order, None, False,
                                  Rational(s0, D), len(steps))
    l0 = left[s0]
    r0 = right[s0]
    constant = Rational(r0 * lhs._den, l0 * rhs._den)
    bad = [s for s in steps if right.get(s, 0) * l0 != r0 * left.get(s, 0)]
    first_mismatch = Rational(min(bad), D) if bad else None
    return VerificationReport(identity, params, order, constant,
                              not bad, first_mismatch, len(steps))


def characters_for_wronskian(model, order, *, normalized=False):
    """Characters of the model at the one common precision at which their
    Wronskian is exact below ``order``.

    A raw character starts at ``q^(h_bar)`` and a normalized one at
    ``q^(h_bar + 1/24)``; :func:`wronskian_entry_precision` turns these
    leading exponents into the precision, so nothing is built twice.
    """
    build = normalized_character if normalized else character_double_sum
    labels = distinct_weights(model)
    shift = Rational(1, 24) if normalized else Rational(0)
    precision = wronskian_entry_precision(
        [lab.h_bar + shift for lab in labels], order)
    return [build(model, lab, precision) for lab in labels]


def wronskian_of_characters(model, order, *, normalized=False):
    """Wronskian of the model's characters, exact below ``order``."""
    return wronskian(characters_for_wronskian(model, order,
                                              normalized=normalized))


def _weber_wronskian(order):
    precision = wronskian_entry_precision(
        (WEBER_F_EXPONENT, WEBER_F_EXPONENT, WEBER_F2_EXPONENT), order)
    return wronskian([weber_series(w, precision) for w in ("f", "f1", "f2")])


class Identity(NamedTuple):
    """An identity ``rhs = constant * eta^power``, whose leading exponent is
    ``power / 24``; ``power``, ``rhs``, ``constant`` and ``tuples`` take the
    canonical params as keyword arguments."""
    params: tuple         # names of the int params it takes
    power: Callable       # (**params) -> eta power of the lhs
    rhs: Callable         # (order, **params) -> QSeries
    constant: Callable    # (**params) -> the one constant that matches
    # a lattice sum's rhs built by tuple enumeration and as one Wronskian,
    # each at any headroom, which audit_identity compares with each other;
    # None off the lattice sums
    tuples: Optional[Callable] = None
    determinant: Optional[Callable] = None


def _lattice_entry(params, power, constant, tuples, determinant):
    """The entry of a lattice sum, whose rhs is built by ``tuples`` at a
    headroom (order minus ``power/24``) below
    :data:`LATTICE_DETERMINANT_HEADROOM`, read when it is called, and by
    ``determinant`` from there on."""
    def rhs(order, **values):
        base = Rational(power(**values), 24)
        order = order_above(order, base)
        if order - base < LATTICE_DETERMINANT_HEADROOM:
            return tuples(order, **values)
        return determinant(order, **values)
    return Identity(params, power, rhs, constant, tuples, determinant)


def _weight_vandermonde(s, t, scale=1):
    """``scale^(k(k-1)/2)`` times the Vandermonde of the h_bar values of the
    (s, t) model, in ``distinct_weights`` order.  As ``h_bar = (ns - mt)^2
    / (4st) - 1/24``, that is the Vandermonde of the integer squares
    ``(ns - mt)^2`` times ``(scale / 4st)^(k(k-1)/2)``."""
    model = make_model(s, t)
    k = model.k
    return vandermonde([(label.n * s - label.m * t) ** 2
                        for label in distinct_weights(model)]) \
        * Rational(scale, 4 * s * t) ** (k * (k - 1) // 2)


# Each builder is looked up as a module global when its entry is called, so
# a function patched into this module (by a tracer or a test) is used.
IDENTITIES = {
    # eta is built as the pentagonal sum, so the rhs is the product
    "euler": Identity((), lambda: 1,
                      lambda order: euler_product(order - ETA_EXPONENT)
                      .shift(ETA_EXPONENT), lambda: 1),
    "jacobi": Identity((), lambda: 3,
                       lambda order: jacobi_cube_series(order), lambda: 1),
    "macdonald": _lattice_entry(
        ("k",), _denominator_power, _pair_sign,
        lambda order, k: _sum_terms(macdonald_terms(k, order), order)
        * _macdonald_prefactor(k),
        lambda order, k: _lattice_determinant(make_model(2, 2 * k + 1), order)
        * _macdonald_prefactor(k)),
    "denominator": _lattice_entry(
        ("s", "t"), lambda s, t: _denominator_power(make_model(s, t).k),
        lambda s, t: _weight_vandermonde(s, t, 4 * s * t),
        lambda order, s, t: _sum_terms(general_terms(make_model(s, t), order),
                                       order),
        lambda order, s, t: _lattice_determinant(make_model(s, t), order)),
    "wronskian_raw": Identity(
        ("s", "t"),
        lambda s, t: 2 * make_model(s, t).k * (make_model(s, t).k - 1),
        lambda order, s, t: wronskian_of_characters(make_model(s, t), order),
        _weight_vandermonde),
    "wronskian_normalized": Identity(
        ("s", "t"), lambda s, t: _denominator_power(make_model(s, t).k),
        lambda order, s, t: wronskian_of_characters(
            make_model(s, t), order, normalized=True),
        _weight_vandermonde),
    "weber": Identity((), lambda: 12,
                      lambda order: _weber_wronskian(order),
                      lambda: Rational(7, 256)),
}

IDENTITY_NAMES = tuple(IDENTITIES)


def identity_params(name, params):
    """``params`` checked against the entry ``name`` of :data:`IDENTITIES`
    and put in canonical form; ``None`` values count as absent.  ValueError
    for an unknown name, a param it does not take, a missing or non-int
    param, or a value off its domain: k >= 2, and (s, t) a minimal model,
    which is given as s < t."""
    entry = IDENTITIES.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ValueError(f"unknown identity {name!r}; known: "
                         f"{', '.join(IDENTITIES)}")
    given = {key: value for key, value in params.items() if value is not None}
    for key, value in given.items():
        if key not in entry.params:
            raise ValueError(f"unknown param {key!r} for {name}, which takes "
                             f"{', '.join(entry.params) or 'no params'}")
        if type(value) is not int:
            raise ValueError(f"param {key!r} must be an integer")
    if len(given) < len(entry.params):
        raise ValueError(f"{name} requires {' and '.join(entry.params)}")
    if given.get("k", 2) < 2:
        raise ValueError(f"{name} requires k >= 2 (k = 1 is the pentagonal "
                         "identity: verify euler)")
    if "s" in given:
        model = make_model(given["s"], given["t"])
        given = {"s": model.s, "t": model.t}
    return given


def identity_lowest_exponent(name, **params):
    """Leading exponent of the identity named by ``name``; any verification
    order must exceed this value."""
    params = identity_params(name, params)
    return Rational(IDENTITIES[name].power(**params), 24)


def _admissible(name, order, params):
    """``order`` and ``params`` for a verification of ``name``, checked;
    ValueError unless ``order`` exceeds the identity's leading exponent."""
    params = identity_params(name, params)
    return order_above(order, identity_lowest_exponent(name, **params)), params


def _compare(name, params, order, rhs):
    """The report of ``rhs`` against ``eta_power(power)`` of the entry
    ``name``; a match needs the entry's predicted constant."""
    entry = IDENTITIES[name]
    lhs = eta_power(entry.power(**params), order)
    report = empirical_constant(lhs, rhs, order, identity=name, params=params)
    if report.constant != entry.constant(**params):
        report = report._replace(match=False)
    return report


def verify_identity(name, *, order=20, **params):
    """Compare ``eta_power(power)`` with the rhs of the entry ``name`` of
    :data:`IDENTITIES` (params as in :func:`identity_params`), built on the
    path its headroom selects; the entry's ``tuples`` is not consulted.  The
    report carries the constant found, which must equal the entry's
    predicted constant for a match.
    """
    order, params = _admissible(name, order, params)
    return _compare(name, params, order, IDENTITIES[name].rhs(order, **params))


def audit_identity(name, *, order, **params):
    """:func:`verify_identity` for a lattice sum, built once by its tuples
    and once as its Wronskian whatever its headroom: RuntimeError if the two
    differ below ``order``, else the report of either against the eta
    power."""
    order, params = _admissible(name, order, params)
    entry = IDENTITIES[name]
    if entry.tuples is None:
        lattice = [key for key, other in IDENTITIES.items()
                   if other.tuples is not None]
        raise ValueError("--window-audit applies to the lattice-sum "
                         f"identities ({', '.join(lattice)})")
    rhs = entry.tuples(order, **params)
    if entry.determinant(order, **params) != rhs:
        raise RuntimeError(f"window audit failed for {name}: the Wronskian "
                           "form differs from the tuple enumeration below "
                           "the order")
    return _compare(name, params, order, rhs)
