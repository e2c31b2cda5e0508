"""Exact toolkit for scale-dependent dimension spectra of dyadic sets.

The package is organized around one pipeline: describe a target spectrum
(:mod:`branchdim.spectra`), certify or repair its two-scale branching
function (:mod:`branchdim.branch`), realize it as an explicit subset of
the line (:mod:`branchdim.sets`), and measure that subset back with exact
packing and covering counts (:mod:`branchdim.counting`).  The
:mod:`branchdim.cli` module drives the pipeline from flat config files.
"""

from .errors import (
    BranchDimError,
    DomainError,
    FormatError,
    ParameterError,
)
from .spectra import (
    FamilyParams,
    InequalityReport,
    Spectrum,
    check_inequality,
    check_joint,
    eval_spectrum,
    make_phi,
    make_psi,
    make_q,
    min_family,
    spectrum_from_breakpoints,
    spectrum_from_text,
    spectrum_to_text,
)
from .branch import (
    EtaBound,
    GridBranch,
    LipschitzProfile,
    check_branch,
    lambda_limit,
    lift,
    regularize,
)
from .sets import (
    Assembly,
    AssemblyComponent,
    DyadicSet,
    SubdivisionProfile,
    assembly_to_csv,
    build_assembly,
    build_moran,
    dyadic_set_to_csv,
    enumerate_components,
    geometric_schedule,
    profile_from_lipschitz,
    realize_uniform_profile,
)
from .counting import (
    CountTable,
    IntervalSet,
    SpectrumEstimate,
    UniformityReport,
    check_uniformity,
    covering_count,
    estimate_assouad_spectrum,
    estimate_lower_spectrum,
    lb_table,
    monotonize_estimate,
    packing_count,
    table_to_csv,
    ub_table,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
