"""Binary P6 pixmap rendering of classified rasters.

The palette is fixed and the output is a pure function of the grid, so
identical inputs produce byte-identical images: attracted basins cycle
through blues, drifting tracks through greens, pole-adjacent cells are
red, suspect cells black, unresolved cells gray.  File rows run top-down
(largest imaginary part first).
"""
from __future__ import annotations

import numpy as np

from .dynamics import ATTRACTED, DRIFTING, JULIA_SUSPECT, POLE_ADJACENT, RasterGrid

GRAY = (128, 128, 128)
RED = (220, 50, 47)
BLACK = (0, 0, 0)
BLUES = ((38, 139, 210), (83, 104, 229), (129, 169, 247), (58, 80, 190))
GREENS = ((64, 160, 43), (104, 194, 70), (148, 216, 98), (42, 122, 68))


def render_bytes(grid: RasterGrid) -> bytes:
    h, w = grid.labels.shape
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[:] = GRAY
    for label, colors in ((ATTRACTED, BLUES), (DRIFTING, GREENS)):
        sel = grid.labels == label
        if sel.any():
            idx = np.mod(grid.ids[sel], len(colors))
            img[sel] = np.asarray(colors, dtype=np.uint8)[idx]
    img[grid.labels == POLE_ADJACENT] = RED
    img[grid.labels == JULIA_SUSPECT] = BLACK
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + img[::-1].tobytes()


def render_pixmap(grid: RasterGrid, path) -> None:
    """Write the grid as a P6 file."""
    data = render_bytes(grid)
    with open(path, "wb") as fh:
        fh.write(data)
