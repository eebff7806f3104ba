"""Thermodynamic formalism on symmetric beta-shifts.

Exact beta-expansions and shift admissibility, a cylinder discretization
of the weighted preimage-sum transfer operator with its Perron eigendata,
and pressure / entropy / zero-temperature computations on top of it.
"""

from .algebraic import QuadReal
from .expansion import (Params, beta_t, eval_series, golden_ratio,
                        greedy_expansion, lazy_expansion, prefix_value,
                        quasi_greedy, quasi_greedy_of_one, quasi_lazy,
                        transitive_pattern, unique_expansion)
from .operator import (EigenData, NormalizedSystem, RegimeError, TransferSystem,
                       build_system, canonical_point, dense_spectrum, iterate,
                       lk_solve, log_power_solve, normalize_potential,
                       power_solve)
from .potentials import PotentialSpec, parse_potential
from .sequences import (PeriodicSeq, Word, lex_compare, metric_d, reflect_word,
                        word_minus, word_plus)
from .shift import (CylinderBasis, Kneading, TransitivityResult, UndecidedError,
                    build_kneading, check_transitivity, digit_interval,
                    digit_interval_integers, enumerate_words, forbidden_words,
                    is_admissible, is_admissible_point, is_irreducible,
                    kneading_self_admissible, preimage_digits)
from .thermo import (GibbsMeasure, InvariantTestMeasure, ThermoCurve, ThermoPoint,
                     entropy_inf_check, entropy_of_gibbs, gibbs_measure,
                     max_ergodic_average, orbit_measure, periodic_orbits,
                     random_markov_measure, variational_gap,
                     zero_temperature_scan)

__version__ = "0.1.0"

__all__ = [
    "QuadReal", "Params", "beta_t", "golden_ratio", "transitive_pattern",
    "eval_series", "prefix_value", "greedy_expansion", "lazy_expansion",
    "quasi_greedy", "quasi_greedy_of_one", "quasi_lazy", "unique_expansion",
    "PeriodicSeq", "Word", "lex_compare", "metric_d", "reflect_word",
    "word_plus", "word_minus",
    "Kneading", "CylinderBasis", "TransitivityResult", "UndecidedError",
    "build_kneading", "is_admissible", "is_admissible_point",
    "kneading_self_admissible", "enumerate_words", "forbidden_words",
    "preimage_digits", "digit_interval", "digit_interval_integers",
    "is_irreducible", "check_transitivity",
    "PotentialSpec", "parse_potential",
    "TransferSystem", "EigenData", "NormalizedSystem", "RegimeError",
    "build_system", "canonical_point", "power_solve", "log_power_solve",
    "lk_solve", "normalize_potential", "iterate", "dense_spectrum",
    "GibbsMeasure", "InvariantTestMeasure", "ThermoCurve", "ThermoPoint",
    "gibbs_measure", "entropy_of_gibbs",
    "entropy_inf_check", "variational_gap", "random_markov_measure",
    "orbit_measure", "periodic_orbits", "max_ergodic_average",
    "zero_temperature_scan",
]
