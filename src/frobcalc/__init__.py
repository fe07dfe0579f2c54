"""frobcalc: exact characteristic-p commutative algebra over prime fields.

Frobenius splitting tests with re-verifiable certificates, pushforward
module decompositions, Koszul-homology codepth and graded Betti tables, and
bound reports for pushforward levels and generation exponents.
"""

__version__ = "0.1.0"

from .errors import (
    ExponentOverflowError,
    FrobcalcError,
    NonArtinianError,
    NotFSplitError,
    ParseError,
    ResourceGuardError,
    RingMismatchError,
    UnsupportedIdealClassError,
    VerificationError,
)
from .ideals import (
    CIIdeal,
    MonomialIdeal,
    build_ideal,
    in_bracket_max,
)
from .koszul import (
    betti_power_formula,
    betti_table,
    codepth,
    strand_check,
)
from .levels import (
    BoundReport,
    f_level_bounds,
    generation_exponent,
)
from .polyring import (
    Polynomial,
    PolyRing,
    is_prime,
    parse_polynomial,
    truncated_lucas_power,
)
from .pushforward import (
    ConicDecomposition,
    CyclicDecomposition,
    FrobeniusModule,
    Rows,
    alpha,
    ci_filtration_check,
    cyclic_decompose,
    pn_pushforward,
    veronese_decompose,
)
from .splitting import (
    SplitCertificate,
    TwistSpectrum,
    graded_summand_test,
    is_f_split,
    k_summand_test,
    twist_spectrum,
    witness_from_proof,
)
