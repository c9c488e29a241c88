"""wanderlab: validated certificates for the plane dynamics of meromorphic maps.

Rigorous rectangle arithmetic, set-inclusion and inequality certificates,
discrete winding numbers, orbit classification rasters, and digital
topology of the resulting coloured regions.
"""
from .numerics import ComplexBox, PoleIntersect

__version__ = "0.1.0"

__all__ = [
    "ComplexBox",
    "PoleIntersect",
    "__version__",
]
