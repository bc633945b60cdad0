"""holoalg: function theory over finite-dimensional commutative unital C-algebras.

Algebras are defined by structure constants, validated, decomposed into
local factors, and equipped with the generalized Cauchy-Riemann systems,
contour integration, the generalized index, Cauchy integral formulas, and
analytic power series of their holomorphy theory.
"""

from .algebra import (
    Algebra,
    Element,
    StructureTensor,
    build_algebra,
    invert,
)
from .catalog import (
    bidual,
    complex_as_plane,
    complex_line,
    direct_sum,
    dual_numbers,
    split_complex,
    truncated_polynomials,
)
from .contour import (
    AdmissibilityReport,
    CircleSegment,
    Cycle,
    HomologicalReport,
    LineSegment,
    Path,
    SpectralIndex,
    admissibility,
    cif_derivative,
    cif_value,
    goursat_residual,
    homological_cif_check,
    index_quadrature,
    index_spectral,
    integrate,
    integrate_cycle,
    length,
    taylor_from_contour,
)
from .crsystem import (
    FunctionSampler,
    PDESystem,
    ScheffersSystem,
    conjugation_sampler,
    dij_residual,
    gcru_residual,
    gcru_system,
    holomorphy_verdict,
    jacobian_consistency,
    newton_invert_map,
    numeric_derivative,
    partial_derivatives,
    recover_structure,
    scheffers_system,
)
from .decomposition import (
    ComponentProfile,
    Decomposition,
    Profile,
    artin_decompose,
    invert_via_series,
    nilradical,
    profile,
    unit_group_coords,
    unit_group_exp,
)
from .morphism import (
    Factorization,
    Morphism,
    build_morphism,
    compose,
    factor,
    identity_morphism,
)
from .series import (
    BoundaryIndeterminate,
    CanonicalForm,
    Divergent,
    PowerSeries,
    ScalarSeries,
    canonical_form,
    extend_to_cylinder,
    geometric_series,
    nilpotent_derivative,
)

from . import errors

__version__ = "0.1.0"
