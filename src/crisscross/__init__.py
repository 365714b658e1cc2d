"""Laplace eigenvalues with quadratic and cubic Lagrange elements on
criss-cross meshes, via the mixed divergence formulation."""

from .mesh import (
    MeshError,
    MeshStats,
    QuadMesh,
    TriMesh,
    build_lshape_grid,
    build_rect_grid,
    criss_cross,
    mesh_stats,
    perturb_quad_grid,
    write_mesh_text,
)
from .refelem import QuadRule, quad_rule
from .fespace import (
    DofMap,
    WhBasis,
    build_scalar_space,
    build_vector_space,
    build_wh_space,
    dim_sigma,
)
from .assembly import (
    assemble_div_coupling,
    assemble_divdiv,
    assemble_scalar_mass,
    assemble_scalar_stiffness,
    assemble_vector_mass,
    write_matrix_market,
)
from .eigsolve import (
    SolverError,
    Spectrum,
    dense_gevp,
    shift_invert_lanczos,
    solve_fem1,
    solve_fem2,
    solve_primal,
)
from .audit import (
    ComplexReport,
    exactness_check,
    spurious_counts,
    square_exact_spectrum,
)

__version__ = "0.1.0"
