"""Root numbers, twist parities and even-rank densities in quadratic twist families."""

from .curves import (
    EllipticCurve,
    bad_places,
    curve,
    invariants,
    local_rep_type,
    local_root_number,
    minimal_model_at,
    parse_curve,
    quadratic_twist,
    rank_parity,
    reduction_type,
    root_number,
)
from .experiments import (
    DensityReport,
    emit_report,
    find_demo_curve,
    oracle_crosscheck,
    scan_density,
)
from .heckechars import (
    QuadChar,
    enumerate_characters,
    make_char,
    surjectivity_check,
)
from .localfields import (
    LocalCharacter,
    LocalField,
    completion,
    eval_local_char,
    hilbert_symbol,
    is_square_local,
    local_quadratic_characters,
    valuation,
)
from .numberfield import (
    Field,
    NFElem,
    Place,
    archimedean_places,
    parse_element,
    parse_field,
    places_above,
    quadratic_field,
    rational_field,
)
from .parity import (
    GammaConfig,
    KappaReport,
    Scenario,
    counting_check,
    gauss_sum_check,
    kappa,
    kappa_v_at,
    m_v,
    n_v,
    parity_change,
    predicted_even_density,
    sign_table,
)

__all__ = [
    "EllipticCurve", "bad_places", "curve", "invariants", "local_rep_type",
    "local_root_number", "minimal_model_at", "parse_curve", "quadratic_twist",
    "rank_parity", "reduction_type", "root_number",
    "DensityReport", "emit_report", "find_demo_curve", "oracle_crosscheck",
    "scan_density",
    "QuadChar", "enumerate_characters", "make_char", "surjectivity_check",
    "LocalCharacter", "LocalField", "completion", "eval_local_char",
    "hilbert_symbol", "is_square_local", "local_quadratic_characters", "valuation",
    "Field", "NFElem", "Place", "archimedean_places", "parse_element",
    "parse_field", "places_above", "quadratic_field", "rational_field",
    "GammaConfig", "KappaReport", "Scenario", "counting_check", "gauss_sum_check",
    "kappa", "kappa_v_at", "m_v", "n_v", "parity_change", "predicted_even_density",
    "sign_table",
]

__version__ = "0.1.0"
