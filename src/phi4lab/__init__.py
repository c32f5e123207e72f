"""phi4lab: desk-scale workbench for the multiscale analysis of the
lattice-regularized phi^4 field in dimensions 2 and 3.

The package covers regularized propagators and their exact band
decomposition, exact Gaussian layer sampling, renormalized graph
perturbation theory with a brute-force contraction oracle, cluster-tree
power counting, the truncated effective-potential recursion and small
stability experiments, all cross-checkable on tiny lattices.
"""

from .lattice_propagator import (
    LatticeSpec,
    PropagatorKernel,
    BoundReport,
    regulator_chi,
    scale_range_kernel,
    covariance_cumulative,
    covariance_band,
    difference_kernel,
    bound_report,
)
from .field_sampler import (
    FieldLayer,
    MultiscaleField,
    RegionClassification,
    sample_layer,
    assemble,
    hoelder_norm,
    tail_stats,
    classify_regions,
    field_threshold,
)
from .feynman_graphs import (
    GraphElement,
    FeynmanGraph,
    Counterterms,
    enumerate_connected,
    integrated_value,
    counterterms,
    renormalized_chain_value,
    wick_oracle,
    logZ_series,
)
from .power_counting import (
    ScaledGraph,
    ClusterTree,
    TreeTopology,
    PowerCountingVerdict,
    build_clusters,
    verify_identities,
    rho,
    scale_sum,
    divergence_scan,
)
from .effective_potential import (
    PotentialFunctional,
    RemainderBound,
    wick_power,
    bare_potential,
    truncated_integrate,
    relevant_split,
    field_independent_part,
    remainder_bound,
    flow_constant,
)
from .stability_lab import (
    ExperimentConfig,
    StabilityReport,
    estimate_Z,
    stability_envelope,
    nongaussianity,
)

__version__ = "0.1.0"
