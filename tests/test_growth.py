import math

import mpmath
import pytest

from sidonlab.growth import (
    DoubleLog,
    GrowthFunction,
    GrowthRangeError,
    Power,
    StepTable,
    least_nu,
    parse_growth,
    validate_growth,
)


class SingleLog(GrowthFunction):
    """w(x) = max(1, log(e + x)); test-local family with a closed inverse."""

    def __call__(self, x):
        return max(1.0, math.log(math.e + x))

    def eval_mp(self, x):
        return max(mpmath.mpf(1), mpmath.log(mpmath.e + mpmath.mpf(x)))

    def least_x(self, target):
        if target <= 1:
            return mpmath.mpf(1)
        with mpmath.workdps(80):
            return mpmath.exp(mpmath.mpf(target)) - mpmath.e

    def describe(self):
        return "singlelog"


def test_builtins_are_valid_growth_functions():
    validate_growth(DoubleLog(1.0))
    validate_growth(DoubleLog(2500.0))
    validate_growth(Power(0.5))
    validate_growth(StepTable(((1, 1), (100, 3), (10**10, 50))))


def test_validate_rejects_bad_functions():
    with pytest.raises(ValueError):
        validate_growth(StepTable(((1, 5),)))  # no growth across the grid
    with pytest.raises(ValueError):
        StepTable(((1, 2), (10, 1)))  # decreasing
    with pytest.raises(ValueError):
        StepTable(((1, 0.5),))  # below 1
    with pytest.raises(ValueError):
        Power(-1)
    with pytest.raises(ValueError):
        DoubleLog(0)


@pytest.mark.parametrize("text", [
    "doublelog:inf", "doublelog:nan", "doublelog:-inf", "power:inf", "power:nan",
    "step:1=inf", "step:1=nan", "step:inf=2", "step:nan=2", "step:1=1,10=inf",
])
def test_non_finite_parameters_are_refused(text):
    # NaN passes every "<= 0" and "< 1" test, and inf gives an infinite bound
    with pytest.raises(ValueError, match="finite"):
        parse_growth(text)


def test_parse_growth_roundtrip():
    for text in ("doublelog:2500", "power:0.5", "step:1=1,10=2,100=7"):
        w = parse_growth(text)
        assert parse_growth(w.describe())(123.0) == w(123.0)
    with pytest.raises(ValueError):
        parse_growth("exp:1")


def test_step_table_evaluation():
    st = StepTable(((1, 1), (10, 2), (100, 7)))
    assert st(5) == 1 and st(10) == 2 and st(99) == 2 and st(100) == 7
    assert float(st.least_x(7)) == 100
    with pytest.raises(GrowthRangeError):
        st.least_x(100)


def test_least_nu_minimum_dominates():
    # far beyond the threshold, the floor nu_min wins
    big = StepTable(((1, 10**9),))
    assert least_nu(big, 0.1, 500.0, nu_min=16) == 16


def test_least_nu_small_scale_matches_scan():
    w = Power(0.5)
    K, target = 0.37, 9.0
    nu = least_nu(w, K, target, nu_min=16)
    scan = next(n for n in range(16, 10**6) if w(K * n) >= target)
    assert nu == scan


def test_least_nu_astronomical_single_log():
    # K_2 at p=2: (1/4) log 2 / log 16 = 1/16; target 3*2/K = 96
    K = 0.0625
    target = 6 / K
    w = SingleLog()
    nu = least_nu(w, K, target, nu_min=16)
    assert len(str(nu)) == 43  # about 16 * e^96
    with mpmath.workdps(80):
        assert w.eval_mp(mpmath.mpf(K) * nu) >= target
        assert w.eval_mp(mpmath.mpf(K) * (nu - 1)) < target


def test_least_nu_monotone_in_target():
    w = SingleLog()
    a = least_nu(w, 0.0625, 30.0)
    b = least_nu(w, 0.0625, 31.0)
    assert b >= a


def test_double_log_inversion_overflows_cleanly():
    with pytest.raises(GrowthRangeError):
        DoubleLog(1.0).least_x(96.0)


def test_double_log_small_inversion():
    w = DoubleLog(2.0)
    x = float(w.least_x(3.0))
    assert w(x) >= 3.0 - 1e-9
    assert w(x * 0.99) < 3.0
