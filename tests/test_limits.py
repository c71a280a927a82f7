"""Every desk limit is one module constant, read where it applies, and a
call past it raises core.ResourceCapError (a MemoryError)."""

import numpy as np
import pytest

from sidonlab import mesh, selection, spectral, verify
from sidonlab.core import FpVector, LatticePoint, ResourceCapError
from sidonlab.mesh import BoundSpec, Box, Mesh, check_mesh_condition, mesh_count, mesh_members
from sidonlab.selection import (
    LemmaCertificate,
    SelectionConfig,
    lemma_search,
    sample_lambda,
    sample_lambda_rows,
    trial_statistics,
)
from sidonlab.spectral import _exact_pass, analyticity_witness, sample_flat_lambda
from sidonlab.spread import v_p_size, well_spread_check
from sidonlab.verify import verify_qi_exhaustive


def ip(x):
    return LatticePoint.from_int(x)


# C(2, 2) = 1 subset to re-verify
_CERT = LemmaCertificate(
    p=2, nu=2, ell=1, Lambda=(FpVector(2, (1, 0)), FpVector(2, (0, 1))), K=1.0,
    checked_subset_size=2, mode="bernoulli", use_eighth=False,
    seed=0, trial_found=0,
)
def _sample_of_a_raw_mask():
    """A sample of (Z/2Z)^4 at rho = 0 whose spectra _exact_pass reads from
    a raw mask, as sample_flat_lambda does (sigma^(1) = sup = 5)."""
    mask = np.arange(16) < 5
    spectra = _exact_pass(mask, 0)
    return spectral.FlatSample(nu=4, ell=401, alpha=0.3, mask=mask, sigma1=float(spectra.sigma1),
                               sup_offpeak=float(spectra.sup), retries_used=1, rho=0,
                               top=tuple(spectra.top))


_FLAT = _sample_of_a_raw_mask()


# 9 members by the keyed route: 1 and 2 are not super-increasing at height 1
_MESH = Mesh((ip(1), ip(2)), Box(1))

# (module, constant, a value the call exceeds, the call)
LIMITS = [
    (selection, "SAMPLING_CAP", 15, lambda: sample_lambda_rows(SelectionConfig(2, 4, 1))),
    # p^nu is beyond the sampling cap, so the search draws directly; m = 3
    (selection, "SUBSET_BUDGET", 1, lambda: lemma_search(SelectionConfig(101, 16, 1))),
    (selection, "SUBSET_BUDGET", 0, _CERT.verify),
    # select's statistics draw through the same sampler
    (selection, "SAMPLING_CAP", 15, lambda: trial_statistics(SelectionConfig(2, 4, 1), 0)),
    (spectral, "NU_CAP", 3, lambda: _exact_pass(np.arange(16) < 3, 0)),
    (spectral, "NU_CAP", 13, lambda: sample_flat_lambda(14, 401)),
    # a sample built from a raw mask through _exact_pass
    (spectral, "NU_CAP", 3, lambda: analyticity_witness(_sample_of_a_raw_mask())),
    # the theorem2 and theorem3 mesh reports give no cap, so ENUM_CAP applies
    (mesh, "ENUM_CAP", 8,
     lambda: check_mesh_condition([ip(3)], [_MESH], BoundSpec("sidon_log", C=1.0))),
    (mesh, "ENUM_CAP", 8, lambda: well_spread_check([1, 3], 3)),
    (mesh, "ENUM_CAP", 8, lambda: v_p_size([1, 3], 3)),
    (mesh, "ENUM_CAP", 8, lambda: mesh_count([ip(3)], _MESH)),
    (mesh, "ENUM_CAP", 8, lambda: mesh_members(_MESH)),
    # the pointwise search draws its sets through sample_lambda
    (selection, "SAMPLING_CAP", 15, lambda: sample_lambda(SelectionConfig(2, 4, 1))),
    (verify, "N_MAX_DEFAULT", 2, lambda: verify_qi_exhaustive([ip(1), ip(2), ip(4)])),
    # a FlatSample carries its spectra, so no _exact_pass call checks the cap
    (spectral, "NU_CAP", 3, lambda: analyticity_witness(_FLAT)),
    # 2 ell nu = 8 expected rows of nu = 4 entries
    (selection, "SAMPLE_ENTRY_CAP", 31, lambda: trial_statistics(SelectionConfig(2, 4, 1), 0)),
]


@pytest.mark.parametrize(
    "module, name, below, call", LIMITS,
    ids=[f"{m.__name__.split('.')[-1]}.{n}-{i}" for i, (m, n, _, _) in enumerate(LIMITS)],
)
def test_every_limit_raises_a_resource_cap_error(monkeypatch, module, name, below, call):
    call()  # within the real limit the call completes
    monkeypatch.setattr(module, name, below)
    with pytest.raises(ResourceCapError):
        call()


def test_resource_cap_errors_are_memory_errors():
    from sidonlab.mesh import MeshResourceError
    from sidonlab.verify import QiResourceError

    for error in (ResourceCapError, MeshResourceError, QiResourceError):
        assert issubclass(error, MemoryError)
