"""The hot inner loops, re-exported from ``pykernels``.

``BACKEND`` names the kernel implementation; it is always ``"python"``.
"""

from __future__ import annotations

from numsemi._kernels.pykernels import (
    apery_cosets,
    apery_levels,
    factorizations_of,
    fill_cosets,
    is_representable,
    min_representation,
)

BACKEND = "python"

__all__ = [
    "BACKEND",
    "apery_cosets",
    "apery_levels",
    "factorizations_of",
    "fill_cosets",
    "is_representable",
    "min_representation",
]
