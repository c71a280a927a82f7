import math

import pytest

from sidonlab.growth import DoubleLog, Power, StepTable, parse_growth, validate_growth


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


@pytest.mark.parametrize("w, at_1e308, at_inf", [
    (DoubleLog(2500.0), 2500.0 * math.log1p(math.log1p(1e308)), math.inf),
    (Power(0.5), 1e154, math.inf),
    (Power(2.0), math.inf, math.inf),  # 1e308 ** 2 overflows a float
    (StepTable(((1, 1), (1e300, 5))), 5.0, 5.0),
], ids=["doublelog", "power-0.5", "power-2", "step"])
def test_growth_functions_are_total_up_to_inf(w, at_1e308, at_inf):
    assert (w(1e308), w(math.inf)) == (at_1e308, at_inf)


def test_step_table_evaluation():
    st = StepTable(((1, 1), (10, 2), (100, 7)))
    assert st(5) == 1 and st(10) == 2 and st(99) == 2 and st(100) == 7

