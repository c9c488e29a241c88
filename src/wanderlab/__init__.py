"""wanderlab: validated certificates for the plane dynamics of meromorphic maps.

Rigorous rectangle arithmetic, set-inclusion and inequality certificates,
discrete winding numbers, orbit classification rasters, and digital
topology of the resulting coloured regions.
"""
import os

# wanderlab makes no BLAS call, and OpenBLAS reads this only as numpy loads:
# its idle worker threads then sleep instead of spinning for ~0.1 s of CPU.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .numerics import ComplexBox, PoleIntersect

__version__ = "0.1.0"

__all__ = [
    "ComplexBox",
    "PoleIntersect",
    "__version__",
]
