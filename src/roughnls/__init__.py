"""Pseudo-spectral toolkit for the energy-critical defocusing NLS with
frequency-cube-randomized rough initial data.

Modules: grids (Fourier conventions, spectral fields and symbols), partition
(unit-cube frequency decomposition with smooth weights), randomize (cube
Gaussian draws and tail statistics), linear_flow (free evolution and
composite norms), solver (splitting integrator for the forced difference
equation), morawetz (interaction functional audits), trajectory (snapshot
files and trajectory directories), norms (FrequencyView: spatial norms,
derivatives and gradients of one snapshot; NormPass: space-time
Lebesgue/Sobolev norms over a run's snapshots), harness (batch experiment
runner), cli (command line entry point).
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
    free_flow_into,
    free_multiplier,
    lp_symbol,
)
from .harness import (
    ExperimentConfig,
    ForcingSpec,
    InitialSpec,
    ResultRecord,
    config_hash,
    forcing_field,
    initial_field,
    parse_config,
    run,
    shaped_profile,
    summarize,
)
from .linear_flow import (
    CompositeNormSpec,
    composite_spec,
    high_pass,
    linear_seed,
)
from .morawetz import (
    CStarSpread,
    MainTermReport,
    MorawetzAccumulator,
    MorawetzReport,
    c_star_spread,
    identity_mor_mainterm,
    interaction_functional,
    localization_ratio,
    stored_audit,
)
from .norms import FrequencyView, NormPass, NormSpec, is_admissible
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
    increment_residuals,
    scattering_proxy,
    solve_w,
    twin_run,
)
from .trajectory import (
    TrajectoryReader,
    TrajectoryWriter,
    read_snapshot,
    write_snapshot,
)

__version__ = "0.1.0"
