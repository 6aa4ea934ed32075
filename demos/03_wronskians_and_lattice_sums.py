"""Wronskians of characters, eta powers, and the weighted lattice sums.

The multiplicative derivative q d/dq turns a list of k characters into a
k x k determinant.  For every minimal model that determinant is a single
constant times a power of eta, and expanding it term by term produces a
weighted lattice sum: the verification drivers below pin each constant from
the leading coefficients and then check all remaining coefficients exactly.
"""

from qetakit import (Rational, eisenstein_g2, abel_log_derivative_check,
                     c_k_constant, characters_for_wronskian, eta_power,
                     general_rhs, lattice_exponent, macdonald_rhs,
                     macdonald_terms, make_model, chi_d, verify_identity,
                     wronskian_of_characters)

# ---------------------------------------------------------------------------
# Wronskians of the (2,5) characters: raw and eta-normalized.
# ---------------------------------------------------------------------------
model = make_model(2, 5)
raw = wronskian_of_characters(model, 10)
print("W(ch_1, ch_2)       =", raw)
print("vs eta^4            :",
      verify_identity("wronskian_raw", s=2, t=5, order=10).to_line())
print("vs eta^6 normalized :",
      verify_identity("wronskian_normalized", s=2, t=5, order=10).to_line())

# The first-order coefficient of the underlying differential relation shows
# up as an exact statement: theta(W) + k(k-1) G2 W = 0.
entries = characters_for_wronskian(model, 16)
g2 = eisenstein_g2(15)
print("theta(W) + 2*G2*W = 0:",
      abel_log_derivative_check(entries, 2 * g2, 15))

# ---------------------------------------------------------------------------
# The k-fold signed lattice sum that the normalized Wronskian expands into.
# ---------------------------------------------------------------------------
print("\nlowest lattice terms for k = 2:")
for term in sorted(macdonald_terms(2, 4), key=lambda t: t.exponent)[:6]:
    print(f"   n={term.n_vec}  exponent={term.exponent}  weight={term.weight}")
print("weight at the origin:", chi_d(2, (0, 0)))
print("exponent at the origin:", lattice_exponent(2, (0, 0)))

rhs = macdonald_rhs(2, 8)
print("\nassembled sum:", rhs)
print("eta^6        :", eta_power(6, 8))
for k in (2, 3, 4):
    print(verify_identity("macdonald", k=k, order=12).to_line())

# The bridge: the k = 3 signed sum is the (2,7) model's sum times the
# closed-form prefactor C_3 * (-1)^3.
print("macdonald_rhs(3) == -C_3 * general_rhs((2,7)):",
      macdonald_rhs(3, 6) == general_rhs(make_model(2, 7), 6) * -c_k_constant(3))

# ---------------------------------------------------------------------------
# The general family: one identity per minimal model.  The (2,3) case is the
# pentagonal identity itself; larger models hit higher eta powers.
# ---------------------------------------------------------------------------
print()
for s, t in ((2, 3), (2, 5), (3, 4), (3, 5)):
    print(verify_identity("denominator", s=s, t=t, order=12).to_line())
print("\n(3,4) general sum:", general_rhs(make_model(3, 4), 5))

# ---------------------------------------------------------------------------
# The Weber product functions close the circle: their Wronskian is an exact
# rational multiple of eta^12.
# ---------------------------------------------------------------------------
report = verify_identity("weber", order=20)
print("\nWeber determinant ratio:", report.to_line())
assert report.constant == Rational(7, 256)
