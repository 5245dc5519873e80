"""ldplab: thermodynamic formalism and large deviations on subshifts of finite type.

The library covers, for a primitive 0/1 transition matrix and locally
constant potentials:

* exact point arithmetic, the shift metric and the splice bracket,
* topological pressure and equilibrium (Gibbs) Markov measures,
* conditional measures on expanding leaves with an exhaustive audit of
  their dynamic-ball pinching constants,
* scalar and measure-level deviation rate functions and exact or
  Monte Carlo deviation-set masses.
"""

from .errors import (
    BracketUndefined,
    BudgetExceeded,
    DegenerateFit,
    EmptyInterval,
    EmptyRowOrColumn,
    EnumerationTooLarge,
    InadmissibleConcatenation,
    InadmissiblePast,
    IncompatibleSupport,
    IncompleteTable,
    InconsistentStart,
    LdplabError,
    MemoryTooLarge,
    NoConvergence,
    NotPrimitive,
    ParseError,
    ValidationError,
    WordTooShort,
)
from .sft import (
    AxiomReport,
    EmpiricalMeasure,
    PointRep,
    Potential,
    SubshiftSpec,
    Word,
    admissible_words,
    axioms_check,
    birkhoff_sum,
    bracket,
    combine_potentials,
    distance,
    is_admissible,
    orbital_empirical,
    shift,
    unstable_leaf_words,
    validate_spec,
)
from .thermo import (
    MarkovMeasure,
    RecodedChain,
    RPFData,
    TiltFamily,
    WeightedMatrix,
    entropy,
    equilibrium_measure,
    gibbs_measure,
    integrate,
    phi_vector,
    pressure,
    random_markov_measure,
    recode,
    rpf_solve,
    transfer_matrix,
    variational_gap,
)
from .leaf import (
    GibbsRatioReport,
    LeafMeasure,
    bowen_ball_mass,
    cylinder_mass,
    gibbs_ratio_audit,
    leaf_measure,
    sample_path,
    sample_paths,
)
from .ldp import (
    ContractionReport,
    DeviationPoint,
    DeviationSeries,
    Interval,
    RateCurve,
    RateFit,
    contraction_check,
    deviation_mass_exact,
    deviation_mass_mc,
    deviation_series,
    ergodic_range,
    growth_estimate,
    q_derivative,
    q_value,
    rate_curve,
    rate_fit,
    rate_measure,
    rate_scalar,
    recommended_tilt,
)

__version__ = "0.1.0"
