"""Unbiased operator frames, equal-overlap measurement families, and dual
affine plane geometry in prime dimensions."""

from .linalg import (
    HermitianOp,
    hermitian_eigensystem,
    hs_inner,
    matrix_rank,
    third_moment,
)
from .weyl import (
    HGBasis,
    MubFamily,
    WeylPair,
    build_hg_basis,
    build_mub,
    build_weyl_pair,
    commuting_classes,
    is_prime,
    monomial,
    verify_mub,
    verify_rotation_action,
)
from .plane import (
    Apg,
    Dapg,
    build_apg,
    build_dapg,
    export_incidence,
    incidence_from_json,
    verify_incidence,
)
from .frames import (
    LineFrame,
    PointFrame,
    build_simplex_vectors,
    line_ops_from_points,
    line_probabilities,
    point_frame_from_hg,
    point_frame_from_mub,
    point_ops_from_lines,
    quasi_distribution,
    scaled_so,
    trace_one,
    verify_line_table,
    verify_point_line_products,
    verify_point_table,
    with_beta,
)
from .siclab import (
    Fiducial,
    ProbabilityVector,
    SearchConfig,
    SearchResult,
    SicFamily,
    assert_column_constant,
    build_sigma0_from_phases,
    extract_mu_pom,
    fiducial_from_mu_pom,
    generate_hw_sic,
    group_columns_by_spectrum,
    ingest_fiducial,
    mu_pom_from_probabilities,
    overlap_table,
    phases_from_fiducial,
    qubit_fiducial,
    qutrit_cyclic_family,
    qutrit_fiducial,
    rank_one_conditions,
    search_fiducial,
    solve_cyclic_probability,
    spectra_table,
    verify_mu_pom,
    verify_sic,
)

__version__ = "0.1.0"
