"""Desk-scale lab for quasi-independent sets, meshes, random selection in
(Z/pZ)^nu, Walsh spectra, and sub-Gaussian tail bounds."""

import os

# The lab makes no BLAS call: its only matrix products (``core.row_keys`` and
# the F_p route of ``mesh``) are int64, which numpy computes without BLAS.
# Yet OpenBLAS starts nproc - 1 idle threads when numpy loads, and again when
# scipy.special loads its own copy, so cap it at one thread before either
# loads.  The value stays set for the whole process (scipy loads late, in
# ``tails``), and a value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    FpVector,
    LatticePoint,
    SignVector,
    fp_rank,
    is_free,
    is_prime,
    next_prime,
    signed_combination,
)
from .construction import (
    DissociatedBasis,
    QiMatrix,
    Theorem1Construction,
    build_matrix,
    embed_theorem1,
    n_nu,
    theorem1_witness,
    witness_counts,
)
from .verify import (
    DependencyWitness,
    verify_qi_exhaustive,
    verify_qi_naive,
    verify_qi_structural,
)
from .mesh import (
    BoundSpec,
    Box,
    ExplicitList,
    Mesh,
    MeshReport,
    check_mesh_condition,
    mesh_count,
    mesh_members,
    random_meshes,
    sidon_mesh_bound,
)
from .selection import (
    LemmaCertificate,
    SelectionConfig,
    estimate_tied_probability,
    k_ell,
    lemma_search,
    sample_lambda,
)
from .growth import DoubleLog, GrowthFunction, Power, StepTable, parse_growth
from .blocks import (
    BlockConstruction,
    build_theorem2_prefix,
    choose_nu,
    pisier_ratio,
    theorem2_mesh_reports,
)
from .spread import (
    SpreadSystem,
    build_theorem3_prefix,
    theorem3_mesh_reports,
    v_p_size,
    well_spread_check,
)
from .spectral import (
    FlatSample,
    WitnessReport,
    analyticity_witness,
    fwht,
    naive_wht,
    sample_flat_lambda,
)
from .tails import (
    SubGaussianSpec,
    binomial_subgaussian_spec,
    binomial_tail_exact,
    check_mgf_inequality,
    difference_tail_check,
    subgaussian_tail_bound,
)

__version__ = "0.1.0"
