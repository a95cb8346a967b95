import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from veclog.dq import DesignQualityInput, DomainError, design_quality


def inputs(p=0.1, n=10, k=0.5, hs=1.0, ha=1.0):
    return DesignQualityInput(p, n, k, hs, ha)


valid_inputs = st.builds(
    DesignQualityInput,
    st.floats(0, 1),
    st.integers(0, 60),
    st.floats(0, 1),
    st.floats(0, 1e6),
    st.floats(1e-9, 1e6),
)


class TestFormulas:
    def test_fully_testable_design(self):
        out = design_quality(inputs(k=1.0, p=0.7, n=25))
        assert out.fault_level == 0.0
        assert out.verification_time == 0.0

    def test_no_faults(self):
        out = design_quality(inputs(p=0.0, n=17))
        assert out.yield_estimate == 1.0
        assert out.fault_level == 0.0

    def test_reference_point(self):
        # frozen from independent evaluation: 0.9**10 and 1 - 0.9**5 are
        # exact decimals, the rest is plain arithmetic
        out = design_quality(inputs(p=0.1, n=10, k=0.5, hs=2.0, ha=2.0))
        assert out.yield_estimate == pytest.approx(0.3486784401, abs=1e-12)
        assert out.fault_level == pytest.approx(0.40951, abs=1e-12)
        assert out.verification_time == pytest.approx(0.25, abs=1e-12)
        assert out.hardware_redundancy == pytest.approx(0.5, abs=1e-12)
        assert out.quality == pytest.approx(1.15951 / 3, abs=1e-12)

    def test_certain_fault_untestable(self):
        out = design_quality(inputs(p=1.0, n=1, k=0.0))
        assert out.yield_estimate == 0.0
        assert out.fault_level == 1.0

    def test_zero_faults_count(self):
        out = design_quality(inputs(n=0))
        assert out.yield_estimate == 1.0
        assert out.fault_level == 0.0


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(p=-0.1), dict(p=1.5), dict(n=-1), dict(k=-0.2), dict(k=2.0),
        dict(hs=-1.0), dict(ha=-1.0), dict(hs=0.0, ha=0.0),
        dict(ha=-math.inf),
    ])
    def test_out_of_range(self, kwargs):
        with pytest.raises(DomainError):
            inputs(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(hs=math.nan), dict(hs=math.inf), dict(ha=math.nan),
        dict(ha=math.inf), dict(hs=math.inf, ha=math.inf)])
    def test_non_finite_complexity(self, kwargs):
        with pytest.raises(DomainError, match="^complexities must be finite$"):
            inputs(**kwargs)


class TestHugeComplexities:
    """Complexities whose sum overflows a float still give their shares."""

    def test_equal_shares(self):
        out = design_quality(inputs(p=0.1, n=10, k=0.5, hs=1e308, ha=1e308))
        assert out.verification_time == 0.25
        assert out.hardware_redundancy == 0.5
        assert out.quality == design_quality(inputs()).quality

    def test_unequal_shares(self):
        out = design_quality(inputs(k=0.0, hs=1.5e308, ha=0.5e308))
        assert out.verification_time == pytest.approx(0.75, abs=1e-12)
        assert out.hardware_redundancy == pytest.approx(0.25, abs=1e-12)

    def test_largest_float(self):
        out = design_quality(inputs(k=0.0, hs=sys.float_info.max,
                                    ha=sys.float_info.max))
        assert (out.verification_time, out.hardware_redundancy) == (0.5, 0.5)


class TestProperties:
    @given(valid_inputs)
    def test_outputs_in_unit_interval(self, inp):
        out = design_quality(inp)
        for value in (out.yield_estimate, out.fault_level,
                      out.verification_time, out.hardware_redundancy,
                      out.quality):
            assert -1e-12 <= value <= 1 + 1e-12

    @given(valid_inputs)
    def test_fault_level_consistent_with_yield(self, inp):
        out = design_quality(inp)
        expected = 1.0 - out.yield_estimate ** (1.0 - inp.testability)
        assert math.isclose(out.fault_level, expected, abs_tol=1e-12)

    def test_fault_level_monotone_in_testability(self):
        rng = random.Random(51)
        for _ in range(200):
            p = rng.uniform(0.0, 1.0)
            n = rng.randint(0, 40)
            ks = sorted(rng.uniform(0.0, 1.0) for _ in range(2))
            low = design_quality(inputs(p=p, n=n, k=ks[0])).fault_level
            high = design_quality(inputs(p=p, n=n, k=ks[1])).fault_level
            assert high <= low + 1e-12

    def test_yield_monotone(self):
        rng = random.Random(52)
        for _ in range(200):
            p1, p2 = sorted((rng.uniform(0, 1), rng.uniform(0, 1)))
            n1, n2 = sorted((rng.randint(0, 40), rng.randint(0, 40)))
            k = rng.uniform(0, 1)
            y_low_p = design_quality(inputs(p=p1, n=n1, k=k)).yield_estimate
            y_high_p = design_quality(inputs(p=p2, n=n1, k=k)).yield_estimate
            assert y_high_p <= y_low_p + 1e-12
            y_high_n = design_quality(inputs(p=p1, n=n2, k=k)).yield_estimate
            assert y_high_n <= y_low_p + 1e-12


class TestHugeFaultCounts:
    """A count past the largest float gives the estimates of the limit:
    no yield and full fault level unless p = 0, and no fault level at
    testability 1; the count no longer overflows ``**``."""

    @pytest.mark.parametrize("digits", [308, 309, 4300])
    @pytest.mark.parametrize("p", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_estimates(self, digits, p, k):
        out = design_quality(inputs(p=p, n=int("9" * digits), k=k))
        fault_level = 0.0 if p == 0.0 or k == 1.0 else 1.0
        assert out.yield_estimate == (1.0 if p == 0.0 else 0.0)
        assert out.fault_level == fault_level
        assert out.verification_time == (1.0 - k) / 2
        assert out.hardware_redundancy == 0.5
        assert out.quality == (fault_level + (1.0 - k) / 2 + 0.5) / 3.0

    @pytest.mark.parametrize("p", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_every_larger_count_is_the_largest_float(self, p, k):
        largest = design_quality(inputs(p=p, n=int(sys.float_info.max), k=k))
        for n in (int(sys.float_info.max) + 1, 10 ** 400, int("9" * 4300)):
            assert design_quality(inputs(p=p, n=n, k=k)) == largest
