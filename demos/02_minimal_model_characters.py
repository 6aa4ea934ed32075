"""Minimal-model characters, three ways, plus the weight-sum closed forms.

A model is a coprime pair (s, t); its k = (s-1)(t-1)/2 irreducible characters
are built from a double lattice sum, from a single sum with a residue-class
indicator, and (for s = 2) from an infinite product.  The three constructions
agree coefficient by coefficient.
"""

from qetakit import (Rational, character_chi_form, character_double_sum,
                     character_product, distinct_weights, make_model,
                     mu_count, normalized_character, strange_sum_general)

# ---------------------------------------------------------------------------
# The (2,5) model: two characters with Rogers-Ramanujan product shapes.
# ---------------------------------------------------------------------------
model = make_model(2, 5)
print(f"model {model}")
for label in distinct_weights(model):
    print(f"  (m,n)=({label.m},{label.n})  h={label.h}  h-c/24={label.h_bar}")
    double = character_double_sum(model, label, 12)
    chi = character_chi_form(model, label, 12)
    product = character_product(model, label, 12)
    print("   double sum :", double)
    print("   indicator  :", chi)
    print("   product    :", product)
    assert double.equal_up_to(chi, 12) and double.equal_up_to(product, 12)

# ---------------------------------------------------------------------------
# Normalizing by eta clears the denominator: what remains is a signed
# theta-like sum with coefficients in {-1, 0, 1} for the s = 2 family.
# ---------------------------------------------------------------------------
print("\nnormalized characters of (2,5):")
for label in distinct_weights(model):
    print("   ", normalized_character(model, label, 14))

# ---------------------------------------------------------------------------
# The Ising model (3,4): c = 1/2, three weights.
# ---------------------------------------------------------------------------
ising = make_model(3, 4)
print(f"\nmodel {ising}")
print("weights:", sorted(label.h for label in distinct_weights(ising)))

# ---------------------------------------------------------------------------
# Weight sums only depend on the number of inequivalent modules.
# ---------------------------------------------------------------------------
print("\nweight sums against their closed forms:")
for k in range(1, 7):
    value = strange_sum_general(2, 2 * k + 1)
    assert value == Rational(2 * k * (k - 1), 24)
    print(f"   (2,{2 * k + 1}): sum h_bar = {value} = 2k(k-1)/24")
for s, t in ((3, 4), (3, 5), (4, 5)):
    value = strange_sum_general(s, t)
    closed = Rational((s - 1) * (t - 1) * (s * t - s - t - 1), 48)
    assert value == closed
    print(f"   ({s},{t}): half grid sum = {value}")

# ---------------------------------------------------------------------------
# How many models share a weight count k?
# ---------------------------------------------------------------------------
for k in (1, 9, 12):
    count, solutions = mu_count(k)
    print(f"\n(s-1)(t-1) = {2 * k}: {count} coprime solutions {solutions}")
