"""Every desk limit is one module constant, read where it applies, and a
call past it raises core.ResourceCapError (a MemoryError)."""

import numpy as np
import pytest

from sidonlab import growth, mesh, selection, spectral, verify
from sidonlab.core import FpVector, LatticePoint, ResourceCapError
from sidonlab.growth import DoubleLog, Power
from sidonlab.mesh import Box, Mesh, mesh_count, mesh_members
from sidonlab.selection import (
    LemmaCertificate,
    SelectionConfig,
    lemma_search,
    sample_lambda_rows,
    trial_statistics,
)
from sidonlab.spectral import _spectrum_summary, analyticity_witness, sample_flat_lambda
from sidonlab.spread import v_p_size, well_spread_check
from sidonlab.verify import verify_qi_exhaustive


def ip(x):
    return LatticePoint.from_int(x)


# C(2, 2) = 1 subset to re-verify
_CERT = LemmaCertificate(
    p=2, nu=2, ell=1, Lambda=(FpVector(2, (1, 0)), FpVector(2, (0, 1))), K=1.0,
    checked_subset_size=2, exhaustive=True, mode="bernoulli", use_eighth=False,
    seed=0, trial_found=0,
)
# a sample of (Z/2Z)^4 with its spectrum summary (sigma^(1) = sup = 5)
_FLAT = spectral.FlatSample(nu=4, ell=401, alpha=0.3, mask=np.arange(16) < 5, sigma1=5.0,
                            sup_offpeak=5.0, retries_used=1, lambda_param=20.0)
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
    (spectral, "NU_CAP", 3, lambda: _spectrum_summary(np.arange(16) < 3)),
    (spectral, "NU_CAP", 13, lambda: sample_flat_lambda(14, 401)),
    # the witness transforms a raw mask through _spectrum_summary
    (spectral, "NU_CAP", 3, lambda: analyticity_witness(np.arange(16) < 5, ell=401, rho=0)),
    # DoubleLog checks the cap on its own: exp(e^2 - 1) has about 2.8 digits
    (growth, "LEAST_X_DIGIT_CAP", 2, lambda: DoubleLog(1.0).least_x(2.0)),
    (mesh, "ENUM_CAP", 8, lambda: well_spread_check([1, 3], 3)),
    (mesh, "ENUM_CAP", 8, lambda: v_p_size([1, 3], 3)),
    (mesh, "ENUM_CAP", 8, lambda: mesh_count([ip(3)], _MESH)),
    (mesh, "ENUM_CAP", 8, lambda: mesh_members(_MESH)),
    (growth, "LEAST_X_DIGIT_CAP", 5, lambda: Power(0.5).least_x(1000.0)),
    (verify, "N_MAX_DEFAULT", 2, lambda: verify_qi_exhaustive([ip(1), ip(2), ip(4)])),
    # a FlatSample carries its spectrum summary, so no _spectrum_summary call checks the cap
    (spectral, "NU_CAP", 3, lambda: analyticity_witness(_FLAT, rho=0)),
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
    from sidonlab.growth import GrowthRangeError
    from sidonlab.mesh import MeshResourceError
    from sidonlab.verify import QiResourceError

    for error in (ResourceCapError, MeshResourceError, QiResourceError, GrowthRangeError):
        assert issubclass(error, MemoryError)
