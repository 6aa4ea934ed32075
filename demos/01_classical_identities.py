"""Exact q-series arithmetic and the classical eta identities.

Everything below runs in exact rational arithmetic: a series knows its
precision bound and every printed coefficient is provably exact.
"""

from qetakit import (QSeries, eta_series, eta_power, euler_inverse,
                     euler_product, jacobi_cube_series, rational,
                     verify_identity)

# ---------------------------------------------------------------------------
# Build a series, look at it, serialize it.
# ---------------------------------------------------------------------------
# eta is built from Euler's pentagonal sum: alternating signs at the
# generalized pentagonal numbers.
eta = eta_series(15)
print("eta as the pentagonal sum:")
print("   ", eta)
print("text interchange format:")
print(eta_series(5).to_text())

# The same object from the product side: q^(1/24) prod (1 - q^i), multiplied
# out one binomial factor at a time.  The two constructions share no code.
product = euler_product(15 - rational("1/24")).shift(rational("1/24"))
print("binomial product side:  ", product)
print("product == sum below 15:", product.equal_up_to(eta, 15))

# ---------------------------------------------------------------------------
# The ring operations track precision pessimistically.
# ---------------------------------------------------------------------------
inverse = eta.invert()
print("\neta^(-1) starts at q^(-1/24):", inverse.lowest_term())
print("eta * eta^(-1):", eta * inverse)

partitions = euler_inverse(10)
print("partition numbers:", [int(partitions.coefficient(n)) for n in range(10)])

# ---------------------------------------------------------------------------
# Cubes: the odd-weight alternating sum.
# ---------------------------------------------------------------------------
cube = eta_power(3, 25)
print("\neta^3:", cube)
print("matches the (2m+1) sum below 25:",
      cube.equal_up_to(jacobi_cube_series(25), 25))

# ---------------------------------------------------------------------------
# Verification reports: the constant is fixed from the leading coefficients
# and then every remaining coefficient must agree exactly.
# ---------------------------------------------------------------------------
for name, kwargs in (("euler", {"order": 100}), ("jacobi", {"order": 60})):
    report = verify_identity(name, **kwargs)
    print(report.to_line())
