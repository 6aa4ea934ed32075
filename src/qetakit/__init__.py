"""qetakit: exact q-series arithmetic and eta-power identity verification.

The package is organised around one value type, :class:`~qetakit.series.QSeries`
(truncated series in fractional powers of q over exact rationals with a
tracked precision bound), plus builders for classical named series, minimal
model characters in three equivalent forms, Wronskian/Vandermonde machinery,
and verification drivers that pin every identity constant empirically and
then check each coefficient exactly.
"""

from .rationals import Rational, rational, rat_str
from .series import NotInvertibleError, PrecisionError, QSeries
from .eta import (
    NAMED_SERIES,
    eisenstein_g2,
    eta_power,
    eta_series,
    euler_inverse,
    euler_product,
    jacobi_cube_series,
    named_series,
    pentagonal_sum_series,
    weber_series,
)
from .minimal_models import (
    MinimalModel,
    WeightLabel,
    character_chi_form,
    character_double_sum,
    character_product_2k1,
    chi_numerator,
    chi_support,
    coprime_models,
    distinct_weights,
    make_model,
    mu_count,
    normalized_character,
    strange_sum_2k1,
    strange_sum_general,
    weight_label,
)
from .wronskian import (
    abel_log_derivative_check,
    vandermonde,
    wronskian,
    wronskian_entry_precision,
)
from .identities import (
    IDENTITIES,
    IDENTITY_NAMES,
    LatticeTerm,
    VerificationReport,
    c_k_constant,
    characters_for_wronskian,
    chi_d,
    empirical_constant,
    general_rhs,
    general_terms,
    identity_lowest_exponent,
    identity_params,
    lattice_exponent,
    macdonald_rhs,
    macdonald_terms,
    verify_identity,
    wronskian_of_characters,
)
from .suite import adhoc_manifest, adjusted_order, load_manifest, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
