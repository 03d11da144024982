"""Theorem 1's validation-set size: how many clean validation images pin
the bias within eps of its mean.

Only the standard library: ``segnoise bound`` answers from this module
alone, without numpy or the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ValidationBoundInputs", "required_validation_size"]


@dataclass(frozen=True)
class ValidationBoundInputs:
    """Inputs of the validation-set size bound.

    eps1 bounds the per-image sup error of the predictor, eps0 its mean
    absolute error, eps is the extra recovery slack wanted beyond eps0, and
    alpha the allowed failure probability over image sites (union bound
    across ``image_size`` sites). alpha > 1 is accepted only because it
    exercises the log boundary; it has no statistical meaning.
    """

    eps0: float
    eps1: float
    eps: float
    alpha: float
    image_size: int

    def __post_init__(self):
        # NaN fails no comparison, and an infinity overflows the bound's ceil
        for name in ("eps0", "eps1", "eps", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.eps0 < 0:
            raise ValueError("eps0 must be >= 0")
        if self.eps1 < self.eps0:
            raise ValueError("eps1 must be >= eps0")
        if self.eps <= self.eps0:
            raise ValueError("eps must exceed eps0")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.image_size < 1:
            raise ValueError("image_size must be >= 1")


def required_validation_size(inputs: ValidationBoundInputs) -> int:
    """Validation images sufficient to pin the bias within eps of its mean.

    Evaluates ``ceil(eps1^2 / (2 (eps - eps0)^2) * ln(2 image_size / alpha))``
    (a Hoeffding bound with a union over sites); never negative, and 0 when
    the log argument reaches 1 or the predictor is exact (eps1 = 0), even
    where the log alone overflows. Where the formula leaves the
    floating-point range otherwise (a term overflows, or underflows into a
    zero divisor), it raises ValueError naming the inputs.
    """
    if inputs.eps1 == 0:  # 0 * inf would be NaN
        return 0
    try:
        v = (inputs.eps1 ** 2 / (2.0 * (inputs.eps - inputs.eps0) ** 2)
             * math.log(2.0 * inputs.image_size / inputs.alpha))
        return max(0, math.ceil(v))
    except (OverflowError, ZeroDivisionError, ValueError):
        raise ValueError(
            f"the validation-size bound leaves the floating-point range at eps0={inputs.eps0}, "
            f"eps1={inputs.eps1}, eps={inputs.eps}, alpha={inputs.alpha}, "
            f"image_size={inputs.image_size}") from None
