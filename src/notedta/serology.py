"""Gold-standard classification of raw immunoassay values.

Each analysis scores one marker: HBsAg for hepatitis B, anti-HCV for
hepatitis C. Its cutoff defaults to the originating laboratory's value,
defined once as ``Condition.default_cutoff`` (HBsAg 1.6 IU, anti-HCV 1.0
IU), and ``EvaluationConfig.cutoff`` overrides it: other laboratories use
different assay calibrations.
"""

from .model import Condition, PathologyRecord, SerologyStatus


def classify_marker(record: PathologyRecord, condition: Condition,
                    cutoff: float) -> SerologyStatus:
    """Map the condition's assay value to positive/negative/missing.

    The comparison at the cutoff is inclusive: value >= cutoff is positive.
    """
    value = record.hbsag_iu if condition is Condition.HEPATITIS_B else record.anti_hcv_iu
    if value is None:
        return SerologyStatus.MISSING
    if value >= cutoff:
        return SerologyStatus.POSITIVE
    return SerologyStatus.NEGATIVE
