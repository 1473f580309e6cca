"""Gold-standard classification of raw immunoassay values.

Cutoffs default to the originating laboratory's values, defined once as
``Condition.default_cutoff`` (HBsAg 1.6 IU, anti-HCV 1.0 IU), but are plain
configuration: other laboratories use different assay calibrations.
"""

import math
from collections import namedtuple

from .model import Condition, PathologyRecord, SerologyStatus, checked_make


class SerologyThresholds(namedtuple("SerologyThresholds", "hbsag_cutoff anti_hcv_cutoff")):
    __slots__ = ()
    _make = checked_make

    def __new__(cls, hbsag_cutoff: float = Condition.HEPATITIS_B.default_cutoff,
                anti_hcv_cutoff: float = Condition.HEPATITIS_C.default_cutoff):
        for c in (hbsag_cutoff, anti_hcv_cutoff):
            if not (math.isfinite(c) and c > 0):
                raise ValueError("cutoffs must be finite and > 0")
        return tuple.__new__(cls, (hbsag_cutoff, anti_hcv_cutoff))

    def cutoff(self, condition: Condition) -> float:
        if condition is Condition.HEPATITIS_B:
            return self.hbsag_cutoff
        return self.anti_hcv_cutoff


def classify_marker(
    record: PathologyRecord,
    condition: Condition,
    thresholds: SerologyThresholds = SerologyThresholds(),
) -> SerologyStatus:
    """Map an assay value to positive/negative/missing.

    The comparison at the cutoff is inclusive: value >= cutoff is positive.
    """
    # The marker and its cutoff are picked inline, as `assay_value` and
    # `cutoff` pick them: the tally calls this once per record.
    if condition is Condition.HEPATITIS_B:
        value, cutoff = record.hbsag_iu, thresholds.hbsag_cutoff
    else:
        value, cutoff = record.anti_hcv_iu, thresholds.anti_hcv_cutoff
    if value is None:
        return SerologyStatus.MISSING
    if value >= cutoff:
        return SerologyStatus.POSITIVE
    return SerologyStatus.NEGATIVE
