"""Design-solution quality estimates from testability and complexity figures.

Continuous engineering estimates, so plain floats; compare with a 1e-12
tolerance rather than exactly.
"""
from __future__ import annotations

import math
import sys

from veclog.vlcore import value_type


class DomainError(ValueError):
    """Input outside its documented range."""


@value_type
class DesignQualityInput:
    """Inputs: fault-existence probability, undetected-fault count,
    testability grade, and the two complexity shares (assertion/boundary-scan
    vs functional logic)."""

    fault_probability: float
    undetected_faults: int
    testability: float
    scan_complexity: float
    logic_complexity: float

    def __post_init__(self):
        if not 0.0 <= self.fault_probability <= 1.0:
            raise DomainError("fault probability must lie in [0,1]")
        if self.undetected_faults < 0:
            raise DomainError("undetected-fault count must be >= 0")
        if not 0.0 <= self.testability <= 1.0:
            raise DomainError("testability must lie in [0,1]")
        if self.scan_complexity < 0 or self.logic_complexity < 0:
            raise DomainError("complexities must be >= 0")
        if not (math.isfinite(self.scan_complexity)
                and math.isfinite(self.logic_complexity)):
            raise DomainError("complexities must be finite")
        if self.scan_complexity + self.logic_complexity <= 0:
            raise DomainError("total complexity must be positive")


@value_type
class DesignQualityOutput:
    """All five estimates lie in [0,1]; ``quality`` averages the last three."""

    yield_estimate: float
    fault_level: float
    verification_time: float
    hardware_redundancy: float
    quality: float


def design_quality(inp: DesignQualityInput) -> DesignQualityOutput:
    """Evaluate the yield / fault-level / time / redundancy estimates and
    their average."""
    p = inp.fault_probability
    # a count past the largest float overflows ``**``, and every such count
    # gives the same estimates (not math.inf: with k = 1, inf * 0.0 is nan)
    n = min(inp.undetected_faults, int(sys.float_info.max))
    k = inp.testability
    scan, logic = inp.scan_complexity, inp.logic_complexity
    if math.isinf(scan + logic):  # halving two finite floats this big is exact
        scan, logic = scan / 2, logic / 2
    total = scan + logic
    yield_estimate = (1.0 - p) ** n
    fault_level = 1.0 - (1.0 - p) ** (n * (1.0 - k))
    verification_time = (1.0 - k) * scan / total
    hardware_redundancy = logic / total
    quality = (fault_level + verification_time + hardware_redundancy) / 3.0
    return DesignQualityOutput(yield_estimate, fault_level,
                               verification_time, hardware_redundancy, quality)
