"""sigmapaths: simulation and verification of multiplicative decompositions
of nonnegative submartingales and their zero-carried ("reflected") family."""

from .calculus import (
    LocalTimeEstimate,
    ReflectionPair,
    ito_integral,
    local_time_occupation,
    local_time_tanaka,
    quadratic_variation,
    running_extremum,
    skorokhod_map,
)
from .decompose import (
    CarriedVerdict,
    ClassDReport,
    MultDecomp,
    SigmaTriple,
    carried_by_zeros,
    minimality_gap,
    mult_compose,
    mult_decompose,
    mult_decompose_exp,
    sigma_compose,
    sigma_example_triple,
    sigma_martingale,
)
from .experiments import (
    azema_conditional_experiment,
    generate_rows,
    lemma_balance_experiment,
    saturation_probe,
    tail_experiment,
    two_infinity_check,
)
from .generators import GeneratorSpec
from .grids import (
    McEstimate,
    Path,
    TimeGrid,
    read_paths_csv,
    write_paths_csv,
)
from .streams import StreamKey

__version__ = "0.1.0"
