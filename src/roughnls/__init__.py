"""Pseudo-spectral toolkit for the energy-critical defocusing NLS with
frequency-cube-randomized rough initial data.

Modules: grids (Fourier conventions and spectral fields), partition
(unit-cube frequency decomposition with smooth weights), randomize (cube
Gaussian draws and tail statistics), linear_flow (free evolution and
ensemble norms), solver (splitting integrator for the forced difference
equation), morawetz (interaction functional audits), trajectory (snapshot
container and binary format), norms (space-time Lebesgue/Sobolev norms),
harness (batch experiment runner), cli (command line entry point).
"""

from .errors import (
    BlowupError,
    ConfigError,
    FitError,
    RepresentationError,
    ResolutionError,
    ResourceLimitError,
)
from .grids import (
    GridSpec,
    SpectralField,
    fractional_derivative,
    free_flow_into,
    free_multiplier,
    free_propagate,
    gradient,
    l2_inner,
    lp_norm,
    lp_symbol,
    sobolev_norm,
)
from .harness import (
    ExperimentConfig,
    ForcingSpec,
    InitialSpec,
    ResultRecord,
    config_hash,
    forcing_field,
    initial_field,
    load_config,
    parse_config,
    run,
    shaped_profile,
    summarize,
    sweep,
)
from .linear_flow import (
    CompositeNormSpec,
    composite_norm,
    composite_spec,
    ensemble_linear_stats,
    high_pass,
    linear_seed,
    linear_trajectory,
)
from .morawetz import (
    CStarSpread,
    LocalDensities,
    MainTermReport,
    MorawetzAccumulator,
    MorawetzReport,
    c_star_spread,
    gn_ratios,
    identity_mor_mainterm,
    interaction_functional,
    local_densities,
    localization_ratio,
    morawetz_audit,
)
from .norms import FrequencyView, NormSpec, is_admissible, snapshot_norms, spacetime_norm
from .partition import (
    FrequencyPartition,
    PartitionConfig,
    bernstein_exponent,
    build_partition,
    expected_count,
)
from .randomize import (
    RandomizationDraw,
    TailReport,
    chaos_moment,
    cube_gaussian,
    draw,
    moment_estimate,
    tail_fit,
)
from .solver import (
    AlmostConservationReport,
    ConservationSeries,
    ScatteringReport,
    SnapshotSink,
    SolverConfig,
    TwinReport,
    almost_conservation_monitor,
    dealias_mask,
    energy_of,
    evolve_full,
    increment_residuals,
    mass_of,
    scattering_proxy,
    solve_w,
    twin_run,
)
from .trajectory import (
    Trajectory,
    TrajectoryReader,
    TrajectoryWriter,
    load_trajectory,
    read_snapshot,
    save_trajectory,
    write_snapshot,
)

__version__ = "0.1.0"
