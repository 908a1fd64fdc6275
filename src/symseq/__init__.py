"""Symmetric sequence spaces: norms, dilation operators, Boyd-type indices.

The package is organized bottom-up.  The first three modules are leaves
that import nothing from one another:

    seq        finite sequences as an immutable value type
    spaces     l^p, l^{p,q}, Lorentz and Orlicz norms + fundamental functions
    operators  dilations, shifts, doubling, dyadic embedding/averaging
    lattices   dyadic-block lattices, shift exponents, equivalence reports
    indices    Boyd / fundamental indices with interval error reports
    spectral   residual scans and approximate-eigenvector witnesses
    verify     one end-to-end check per advertised guarantee
    cli        the `symseq` command-line front end

``lattices`` and ``indices`` sit side by side: each reads only ``spaces``
and the private limit estimator ``_limits``.

Everything a caller normally needs re-exports from here.
"""

from .indices import (
    IndexReport,
    Interval,
    index_report,
    report_to_json,
    weight_ratio_indices,
)
from .lattices import (
    EX,
    UN,
    EquivalenceReport,
    LatticeSpec,
    ShiftExponents,
    WeightedLq,
    dyadic_equivalence_report,
    lattice_from_json,
    lattice_norm,
    lattice_to_json,
    sandwich_ratio,
    shift_exponents,
    unit_norms,
)
from .operators import (
    AvgProject,
    AvgProjectN,
    BlockEmbed,
    DilateDown,
    DilateUp,
    Doubling,
    DoublingInverse,
    DoublingMinusLambda,
    OperatorSpec,
    Shift,
    ShiftMinusLambda,
    apply_array,
    parse_operator,
)
from .seq import Seq
from .spaces import (
    Lorentz,
    Lp,
    LpQ,
    Orlicz,
    OrliczFn,
    SpaceSpec,
    WeightSeq,
    fundamental_function,
    norm,
    power_weights,
    space_from_json,
    space_to_json,
)
from .spectral import (
    BranchingReport,
    DisjointnessReport,
    ScanPoint,
    WitnessReport,
    branching_witness,
    check_disjoint_supports,
    doubling_orbit_witness,
    moment_functional,
    residual_scan,
    shift_identity_check,
    solve_shift_minus_lambda,
)
from .verify import ALL_CHECKS, CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKS",
    "AvgProject",
    "AvgProjectN",
    "BlockEmbed",
    "BranchingReport",
    "CheckResult",
    "DilateDown",
    "DilateUp",
    "DisjointnessReport",
    "Doubling",
    "DoublingInverse",
    "DoublingMinusLambda",
    "EquivalenceReport",
    "EX",
    "IndexReport",
    "Interval",
    "LatticeSpec",
    "Lorentz",
    "Lp",
    "LpQ",
    "OperatorSpec",
    "Orlicz",
    "OrliczFn",
    "ScanPoint",
    "Seq",
    "Shift",
    "ShiftExponents",
    "ShiftMinusLambda",
    "SpaceSpec",
    "UN",
    "WeightSeq",
    "WeightedLq",
    "WitnessReport",
    "apply_array",
    "branching_witness",
    "check_disjoint_supports",
    "doubling_orbit_witness",
    "dyadic_equivalence_report",
    "fundamental_function",
    "index_report",
    "lattice_from_json",
    "lattice_norm",
    "lattice_to_json",
    "moment_functional",
    "norm",
    "parse_operator",
    "power_weights",
    "report_to_json",
    "residual_scan",
    "run_checks",
    "sandwich_ratio",
    "shift_exponents",
    "shift_identity_check",
    "solve_shift_minus_lambda",
    "space_from_json",
    "space_to_json",
    "unit_norms",
    "weight_ratio_indices",
]
