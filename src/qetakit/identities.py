"""Lattice-sum identity builders, the identity table and its verifier.

Two families of weighted lattice sums are built here: the k-fold signed sum
with the pairwise square-difference weight (for the s = 2 family) and the
general sum over residue-class supports weighted by a Vandermonde of squares
(one identity per minimal model).  Each verified identity is one entry of
:data:`IDENTITIES`, an :class:`Identity`: its params, the weight w0 shared
by its k columns, the columns themselves as ``(leading exponent, builder)``
pairs, an optional scale and, for a lattice sum, the same rhs built by
tuple enumeration.  The entry is the one way to reach an identity:
``IDENTITIES[name].rhs(order, **params)`` builds its rhs,
:meth:`Identity.built_columns` its columns and
:meth:`Identity.determinant` their Wronskian.  Every rhs off the tuple
path is ``scale`` times the Wronskian W of the columns.  W is a modular
form of weight ``w = k w0 + k(k-1)`` (Mason, "Vector-valued modular forms
and linear differential operators", Int. J. Number Theory 3 (2007)), and
every eta power on the lhs is twice that weight, so its leading exponent
is ``w / 12``.  The weights are 1/2 for Euler's pentagonal theta, 3/2
for Jacobi's cube sum, 0 for characters and Weber's functions and 1/2 for
the normalized characters and chi-form numerators, which gives the powers
1, 3, 12, ``2k(k-1)`` and ``2k^2 - k``.

Verification fixes the constant from the leading nonzero coefficients, then
every remaining coefficient below the requested order must match exactly
against that single constant, and the constant must equal the prediction.
One rule predicts every constant (:meth:`Identity.predicted`): each
column leads with coefficient 1 at an exponent of its own, so W leads
with the Vandermonde of the column leads, eta powers lead with 1, and the
constant is ``scale`` times that Vandermonde.  With one column, Euler and
Jacobi predict 1.  Weber's f and f1 share their lead, so its columns are
f, ``(f - f1)/2`` and f2 at scale -2, which predicts 7/256.  Macdonald
predicts ``(-1)^(k(k-1)/2)``, ``wronskian_raw`` and
``wronskian_normalized`` the Vandermonde of the h_bar values, and
``denominator`` ``(4st)^(k(k-1)/2)`` times it.  A check ends in a
:class:`VerificationReport`, a ``NamedTuple`` like :class:`Identity` and
:class:`LatticeTerm`, so reports compare by value and pickle across the
worker processes of a parallel suite.

Both families are one tuple walk (``_walk``) over a model's windows
(``_model_windows``), one per label, each a
:func:`~qetakit.eta.theta_window`: the integers v >= 1 in the label's
signed residue classes mod 2st, as picks ``(v^2, v, sign)``.  The walk
compares integer partial sums of squares with one integer cap, pruned by
the least square of the coordinates still to pick, and builds a tuple's
weight, its signs times the Vandermonde of its squares, as an int while it
descends, so a repeated square ends a whole subtree.  Lattice weights are
ints; only an emitted term's exponent, its sum of squares over 4st, is a
rational.  Macdonald's sum walks the (2, 2k+1) model's windows in reverse
label order, each pick keyed by its lattice index n instead of v.

Each sum is built on one of two paths, chosen by one rule
(:meth:`Identity.rhs`) from its headroom, the order minus the sum's leading
exponent:

* At a headroom of :data:`LATTICE_DETERMINANT_HEADROOM` or more, the sum is
  one Wronskian.  The Vandermonde of the squares is ``det[x_j^(i-1)]`` and
  multilinear, so the k-fold sum is the k x k determinant whose row i,
  column j is ``sum_v chi_j(v) v^(2(i-1)) q^(v^2/4st)``; that row is
  ``(4st)^(i-1)`` times the (i-1)-th ``q d/dq`` derivative of the chi-form
  numerator of label j, so the sum is ``(4st)^(k(k-1)/2)`` times the
  Wronskian of those numerators: that power is the entry's scale.  The
  s = 2 sum is the (2, 2k+1) model's.
* Below it, the tuples are walked; walked at any headroom they are the
  independent oracle of the Wronskian path.  An entry's ``tuples`` and
  :meth:`Identity.determinant` build its sum each way at any headroom, and
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

import operator
from functools import lru_cache, partial
from math import lcm
from typing import Callable, NamedTuple, Optional

from .eta import ETA_EXPONENT, WEBER_F2_EXPONENT, WEBER_F_EXPONENT, \
    eta_power, euler_product, jacobi_cube_series, theta_window, weber_series
from .minimal_models import _chi_signs, chi_numerator, distinct_weights, \
    make_model, character_double_sum, normalized_character
from .rationals import Rational, largest_int_below, order_above, rat_str, \
    rational
from .series import PrecisionError, QSeries
from .wronskian import vandermonde, wronskian

#: A lattice sum whose headroom (order minus leading exponent) is at least
#: this is built as one Wronskian of chi-form numerators; below it the
#: tuples are enumerated, which is faster while few of them contribute.
#: It stays at 18 for the denominator sum of (5,8) at order 35, a job of
#: the lattice-sums benchmark workload: above 19.25 that sum would switch
#: to tuples, which take about twice its Wronskian (18 ms against 9.4 ms,
#: Python 3.11, 2-vCPU Intel Xeon).  A new sweep waits for a benchmark
#: workload of large-k sums.
LATTICE_DETERMINANT_HEADROOM = 18


class LatticeTerm(NamedTuple):
    """One summand of a k-fold lattice sum."""
    n_vec: tuple
    exponent: object  # exact rational
    weight: int       # sign times the Vandermonde of the squares


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

def _model_windows(model, cap):
    """One :func:`~qetakit.eta.theta_window` per distinct weight of
    ``model``: the v >= 1 in its label's signed residue classes mod 2st
    whose square is at most ``cap``."""
    return [theta_window(2 * model.s * model.t, _chi_signs(model, label), cap)
            for label in distinct_weights(model)]


def _walk(windows, cap, scale, sign):
    """Every tuple that takes one pick ``(square, coordinate, sign)`` from
    each window (sorted by square) and whose squares sum to at most the
    integer ``cap``, lexicographic in the windows' order.  A tuple of
    nonzero weight ``sign * prod(pick signs) * vandermonde(squares)``, an
    int, is a term at the exponent ``sum(squares) / scale``.  The weight is
    built while the walk descends: a pick multiplies it by its sign and by
    its square minus each earlier square, and a zero product ends the whole
    subtree.  A pick is taken while the least sum of any tuple containing
    it stays within the cap, and its window is left at the first pick past
    it, so no contributing tuple is missed."""
    if not all(windows):
        return []
    k = len(windows)
    floor = [0] * (k + 1)  # least sum of squares of the coordinates from i on
    for i in range(k - 1, -1, -1):
        floor[i] = floor[i + 1] + windows[i][0][0]
    terms = []
    n_vec = [0] * k
    squares = [0] * k

    def descend(i, cost, weight):
        if i == k:
            terms.append(LatticeTerm(tuple(n_vec), Rational(cost, scale),
                                     weight))
            return
        room = cap - floor[i + 1]
        earlier = squares[:i]
        for square, n, s in windows[i]:
            if cost + square > room:
                break
            w = weight * s
            for x in earlier:
                w *= square - x
            if w:
                n_vec[i] = n
                squares[i] = square
                descend(i + 1, cost + square, w)

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
        num[key] = num.get(key, 0) + t.weight
    return QSeries._from_numerators(
        scale, 0, {key: c for key, c in num.items() if c}, 1, order)


# ----------------------------------------------------------------------
# the s = 2 family: signed sum with square-difference weights
# ----------------------------------------------------------------------

def _pair_sign(k):
    """``(-1)^(k(k-1)/2)``, the sign of reversing k coordinates, which
    turns a Vandermonde into a product of pairwise differences."""
    return -1 if (k * (k - 1) // 2) % 2 else 1


def c_k_constant(k):
    """The closed-form normalisation ``1/(2^{k(k-1)} prod_{i<j}(i-j)(i+j-1))``,
    which is ``1/prod_{i<j}(d_i^2 - d_j^2)`` at ``d_i = 2i - 1``, where
    ``d_i^2 - d_j^2 = 4(i-j)(i+j-1)``: the Vandermonde of the squares in
    reverse order."""
    k = operator.index(k)
    if k < 2:
        raise ValueError("k must be >= 2")
    return Rational(1, vandermonde([(2 * i - 1) ** 2
                                    for i in range(k, 0, -1)]))


def macdonald_terms(k, order):
    """Every lattice term with exponent below ``order``, without the
    closed-form prefactor; deterministic lexicographic enumeration.

    The exponent is ``sum_i d_i^2 / (16k+8)`` with ``d_i = 2i - 1 + n_i
    (4k + 2)``, and ``v = |d_i|`` runs over the support of label ``(1, k +
    1 - i)`` of the (2, 2k+1) model, with the sign ``(-1)^n_i``: coordinate
    i walks that model's window of the label, so the windows come in
    reverse label order, and a pick is keyed by ``n_i = (+-v - c)/(4k +
    2)`` with ``c = 2i - 1``.
    """
    k = operator.index(k)
    if k < 2:
        raise ValueError("k must be >= 2")
    step = 4 * k + 2
    # a tuple's sum of squares is an integer, at most this cap
    cap = largest_int_below(rational(order) * 4 * step)
    windows = [[(square, ((v if v % step == c else -v) - c) // step, sign)
                for square, v, sign in window]
               for c, window in zip(range(1, 2 * k, 2), reversed(
                   _model_windows(make_model(2, 2 * k + 1), cap)))]
    return _walk(windows, cap, 4 * step, _pair_sign(k))


def _macdonald_prefactor(k):
    """The closed-form prefactor ``c_k_constant(k) * (-1)^(k(k-1)/2)``."""
    return c_k_constant(k) * _pair_sign(k)


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
    return _walk(_model_windows(model, cap), cap, st4, 1)


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


class Identity(NamedTuple):
    """An identity ``rhs = constant * eta^power`` whose rhs is ``scale``
    times the Wronskian W of k columns that share the modular weight
    ``w0``; a lattice sum's rhs is also walked as ``tuples``.  A column is
    a pair ``(leading exponent, builder)``, the builder taking a precision,
    and it leads with coefficient 1 at its declared exponent, which no
    other column of the entry shares.  So everything else comes from the
    columns: k is their count, W has weight ``w = k w0 + k(k-1)`` (Mason,
    Int. J. Number Theory 3 (2007)) and the power is twice that, the
    leading exponent ``power / 24`` is the sum of the leads, and the
    constant is ``scale`` times the Vandermonde of the leads, W's leading
    coefficient.  Each column is built to its lead plus the headroom
    ``order`` minus the sum of the leads, which is what the Wronskian
    recursion reads of it.  ``columns``, ``scale`` and ``tuples`` take the
    canonical params as keyword arguments, and so do the methods after
    ``order``."""
    params: tuple         # names of the int params it takes
    twice_w0: int         # 2 w0, twice the weight of each column
    columns: Callable     # (**params) -> [(leading exponent, builder)]
    scale: Optional[Callable] = None   # (**params) -> W's factor; None: 1
    # a lattice sum's rhs built by tuple enumeration at any headroom, which
    # audit_identity compares with determinant; None off the lattice sums
    tuples: Optional[Callable] = None

    def power(self, **params):
        """The lhs eta power ``2w = k (2 w0) + 2k(k-1)``; no column is
        built."""
        k = len(self.columns(**params))
        return k * self.twice_w0 + 2 * k * (k - 1)

    def predicted(self, **params):
        """The one constant that matches, ``scale`` times the Vandermonde of
        the column leads; no column is built.  The leads are read as ints
        over their common denominator D, whose power ``D^(k(k-1)/2)`` the
        Vandermonde then divides out."""
        leads = [lead for lead, _ in self.columns(**params)]
        D = lcm(*(lead.denominator for lead in leads))
        v = vandermonde([lead.numerator * (D // lead.denominator)
                         for lead in leads])
        scale = 1 if self.scale is None else self.scale(**params)
        return Rational(scale * v, D ** (len(leads) * (len(leads) - 1) // 2))

    def built_columns(self, order, **params):
        """Every column, built to its own leading exponent plus the headroom
        ``order`` minus the sum of the leading exponents: what the Wronskian
        recursion reads of it, so their Wronskian is exact below
        ``order``."""
        leads, builders = zip(*self.columns(**params))
        total = sum(leads, Rational(0))
        headroom = order_above(order, total) - total
        return [build(lead + headroom) for lead, build in zip(leads, builders)]

    def determinant(self, order, **params):
        """``scale`` times the Wronskian of the columns, exact below
        ``order``."""
        w = wronskian(self.built_columns(order, **params))
        return w if self.scale is None else w * self.scale(**params)

    def rhs(self, order, **params):
        """The rhs, exact below ``order``, on the one path rule of the
        lattice sums: ``tuples`` at a headroom (order minus ``power/24``)
        below :data:`LATTICE_DETERMINANT_HEADROOM`, read when it is called,
        and :meth:`determinant` otherwise, which is every rhs of an entry
        without ``tuples``.  The ``macdonald`` rhs is ``c_k_constant(k)
        (-1)^(k(k-1)/2)`` times the (2, 2k+1) model's ``denominator`` rhs
        on either path."""
        if self.tuples is not None:
            base = Rational(self.power(**params), 24)
            order = order_above(order, base)
            if order - base < LATTICE_DETERMINANT_HEADROOM:
                return self.tuples(order, **params)
        return self.determinant(order, **params)


def _lattice_scale(s, t):
    """``(4st)^(k(k-1)/2)``, the per-model lattice sum over the Wronskian
    of its chi-form numerators."""
    k = make_model(s, t).k
    return (4 * s * t) ** (k * (k - 1) // 2)


@lru_cache(maxsize=None)
def _label_columns(s, t, build, shift):
    """One column per distinct weight of the (s, t) model, ``build(model,
    label, precision)``, which leads at ``h_bar + shift``.  Cached, like
    ``weight_label``, so that the power, the prediction and the built
    columns of one verification read one tuple."""
    model = make_model(s, t)
    return tuple((label.h_bar + shift, partial(build, model, label))
                 for label in distinct_weights(model))


#: Jacobi's cube sum leads at 1/8.
_JACOBI_LEAD = Rational(1, 8)
#: Weber's f and f1 both lead at -1/48, and (f - f1)/2 at 23/48.
_WEBER_F_MINUS_F1_LEAD = WEBER_F_EXPONENT + Rational(1, 2)

# Each entry is (params, 2 w0, columns[, scale, tuples]).  Each builder is
# looked up as a module global when its entry's columns are called or
# built, so a function patched into this module (by a tracer or a test) is
# used.  Weber's W(f, f1, f2) is -2 W(f, (f - f1)/2, f2), whose leads are
# distinct.
IDENTITIES = {
    # eta is built as the pentagonal sum, so the rhs is the product
    "euler": Identity((), 1, lambda: [(ETA_EXPONENT, lambda p: euler_product(
        p - ETA_EXPONENT).shift(ETA_EXPONENT))]),
    "jacobi": Identity((), 3, lambda: [(_JACOBI_LEAD, jacobi_cube_series)]),
    "macdonald": Identity(
        ("k",), 1, lambda k: _label_columns(
            2, 2 * k + 1, chi_numerator, ETA_EXPONENT),
        lambda k: _lattice_scale(2, 2 * k + 1) * _macdonald_prefactor(k),
        lambda order, k: _sum_terms(macdonald_terms(k, order), order)
        * _macdonald_prefactor(k)),
    "denominator": Identity(
        ("s", "t"), 1, lambda s, t: _label_columns(
            s, t, chi_numerator, ETA_EXPONENT), _lattice_scale,
        lambda order, s, t: _sum_terms(general_terms(make_model(s, t), order),
                                       order)),
    "wronskian_raw": Identity(
        ("s", "t"), 0, lambda s, t: _label_columns(
            s, t, character_double_sum, 0)),
    "wronskian_normalized": Identity(
        ("s", "t"), 1, lambda s, t: _label_columns(
            s, t, normalized_character, ETA_EXPONENT)),
    "weber": Identity((), 0, lambda: [
        (WEBER_F_EXPONENT, partial(weber_series, "f")),
        (_WEBER_F_MINUS_F1_LEAD, lambda p: (
            weber_series("f", p) - weber_series("f1", p)) * Rational(1, 2)),
        (WEBER_F2_EXPONENT, partial(weber_series, "f2"))], lambda: -2),
}


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
    """``order`` and ``params`` for a verification of ``name``, checked,
    and the entry's eta power; ValueError unless ``order`` exceeds the
    identity's leading exponent, ``power / 24``."""
    params = identity_params(name, params)
    power = IDENTITIES[name].power(**params)
    return order_above(order, Rational(power, 24)), params, power


def _compare(name, params, order, power, rhs):
    """The report of ``rhs`` against ``eta_power(power)``, ``power`` the
    eta power of the entry ``name``; a match needs the entry's predicted
    constant."""
    entry = IDENTITIES[name]
    lhs = eta_power(power, order)
    report = empirical_constant(lhs, rhs, order, identity=name, params=params)
    if report.constant != entry.predicted(**params):
        report = report._replace(match=False)
    return report


def verify_identity(name, *, order=20, **params):
    """Compare ``eta_power(power)`` with the rhs of the entry ``name`` of
    :data:`IDENTITIES` (params as in :func:`identity_params`), built on the
    path its headroom selects, without the cross-check of
    :func:`audit_identity`.  The report carries the constant found, which
    must equal the entry's predicted constant for a match.
    """
    order, params, power = _admissible(name, order, params)
    rhs = IDENTITIES[name].rhs(order, **params)
    return _compare(name, params, order, power, rhs)


def audit_identity(name, *, order, **params):
    """:func:`verify_identity` for a lattice sum, built once by its tuples
    and once as its Wronskian whatever its headroom: RuntimeError if the two
    differ below ``order``, else the report of either against the eta
    power."""
    order, params, power = _admissible(name, order, params)
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
    return _compare(name, params, order, power, rhs)
