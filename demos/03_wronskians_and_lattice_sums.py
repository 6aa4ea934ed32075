"""Wronskians of characters, eta powers, and the weighted lattice sums.

The multiplicative derivative q d/dq turns a list of k characters into a
k x k determinant.  For every minimal model that determinant is a single
constant times a power of eta, and expanding it term by term produces a
weighted lattice sum: the verification drivers below pin each constant from
the leading coefficients and then check all remaining coefficients exactly.
"""

from qetakit import (IDENTITIES, Rational, eisenstein_g2,
                     abel_log_derivative_check, c_k_constant, eta_power,
                     macdonald_terms, verify_identity)

# Every identity is one entry of the table: its rhs, its columns and their
# Wronskian are read off the entry, with the entry's params as keywords.
wronskian_raw = IDENTITIES["wronskian_raw"]
macdonald = IDENTITIES["macdonald"]
denominator = IDENTITIES["denominator"]

# ---------------------------------------------------------------------------
# Wronskians of the (2,5) characters: raw and eta-normalized.
# ---------------------------------------------------------------------------
raw = wronskian_raw.determinant(10, s=2, t=5)
print("W(ch_1, ch_2)       =", raw)
print("vs eta^4            :",
      verify_identity("wronskian_raw", s=2, t=5, order=10).to_line())
print("vs eta^6 normalized :",
      verify_identity("wronskian_normalized", s=2, t=5, order=10).to_line())

# The first-order coefficient of the underlying differential relation shows
# up as an exact statement: theta(W) + k(k-1) G2 W = 0.
entries = wronskian_raw.built_columns(16, s=2, t=5)
g2 = eisenstein_g2(15)
print("theta(W) + 2*G2*W = 0:",
      abel_log_derivative_check(entries, 2 * g2, 15))

# ---------------------------------------------------------------------------
# The k-fold signed lattice sum that the normalized Wronskian expands into.
# ---------------------------------------------------------------------------
print("\nlowest lattice terms for k = 2:")
terms = macdonald_terms(2, 4)
for term in sorted(terms, key=lambda t: t.exponent)[:6]:
    print(f"   n={term.n_vec}  exponent={term.exponent}  weight={term.weight}")
origin = next(term for term in terms if term.n_vec == (0, 0))
print("weight at the origin:", origin.weight)
print("exponent at the origin:", origin.exponent)

rhs = macdonald.rhs(8, k=2)
print("\nassembled sum:", rhs)
print("eta^6        :", eta_power(6, 8))
for k in (2, 3, 4):
    print(verify_identity("macdonald", k=k, order=12).to_line())

# The bridge: the k = 3 signed sum is the (2,7) model's sum times the
# closed-form prefactor C_3 * (-1)^3.
print("macdonald.rhs(6, k=3) == -C_3 * denominator.rhs(6, s=2, t=7):",
      macdonald.rhs(6, k=3) == denominator.rhs(6, s=2, t=7) * -c_k_constant(3))

# ---------------------------------------------------------------------------
# The general family: one identity per minimal model.  The (2,3) case is the
# pentagonal identity itself; larger models hit higher eta powers.
# ---------------------------------------------------------------------------
print()
for s, t in ((2, 3), (2, 5), (3, 4), (3, 5)):
    print(verify_identity("denominator", s=s, t=t, order=12).to_line())
print("\n(3,4) general sum:", denominator.rhs(5, s=3, t=4))

# ---------------------------------------------------------------------------
# The Weber product functions close the circle: their Wronskian is an exact
# rational multiple of eta^12.
# ---------------------------------------------------------------------------
report = verify_identity("weber", order=20)
print("\nWeber determinant ratio:", report.to_line())
assert report.constant == Rational(7, 256)
