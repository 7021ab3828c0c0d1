"""Partition-regularity toolkit for equations a*x + b*y = c*w^m*z^n: verdicts
over N, Z\\{0} and Q\\{0} with independently re-verifiable certificates.

The top level exports the verdict API only; everything else is reached
through its module (`parreg.witness`, `parreg.coloring`, ...).
"""

from .arith import DegenerateInput, ParregError
from .classify import (
    NOT_PR,
    PR,
    UNKNOWN,
    Certificate,
    EquationSpec,
    SystemSpec,
    Verdict,
    classify_equation,
    classify_system,
    reverify,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "DegenerateInput",
    "EquationSpec",
    "NOT_PR",
    "PR",
    "ParregError",
    "SystemSpec",
    "UNKNOWN",
    "Verdict",
    "__version__",
    "classify_equation",
    "classify_system",
    "reverify",
]
