"""Binary P6 pixmap rendering of classified rasters.

The palette is fixed and the output is a pure function of the grid, so
identical inputs produce byte-identical images: attracted basins cycle
through blues, drifting tracks through greens, pole-adjacent cells are
red, suspect cells black, unresolved cells gray.  File rows run top-down
(largest imaginary part first).  The file is written one block of
_BLOCK_ROWS rows at a time, each block's palette codes computed from its
own labels and ids, so rendering holds no full-size copy of the image.
"""
from __future__ import annotations

import numpy as np

from .dynamics import ATTRACTED, DRIFTING, JULIA_SUSPECT, POLE_ADJACENT, RasterGrid

GRAY = (128, 128, 128)
RED = (220, 50, 47)
BLACK = (0, 0, 0)
BLUES = ((38, 139, 210), (83, 104, 229), (129, 169, 247), (58, 80, 190))
GREENS = ((64, 160, 43), (104, 194, 70), (148, 216, 98), (42, 122, 68))

# One row per pixel code: gray, red, black, the blues by basin id and the
# greens by track id.
_PALETTE = np.array((GRAY, RED, BLACK, *BLUES, *GREENS), dtype=np.uint8)
# take widens the codes to intp, 8 bytes a pixel: a block of 16 rows of a
# 1600-pixel raster widens to 200 KiB, and renders as fast as 32 rows
_BLOCK_ROWS = 16


def _codes(labels: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The uint8 palette codes of a block of pixels."""
    code = np.zeros(labels.shape, dtype=np.uint8)
    for label, first, colors in ((ATTRACTED, 3, BLUES), (DRIFTING, 3 + len(BLUES), GREENS)):
        sel = labels == label
        code[sel] = first + np.mod(ids[sel], len(colors))
    code[labels == POLE_ADJACENT] = 1
    code[labels == JULIA_SUSPECT] = 2
    return code


def render_pixmap(grid: RasterGrid, path) -> None:
    """Write the grid as a P6 file, one block of rows at a time."""
    h, w = grid.labels.shape
    labels, ids = grid.labels[::-1], grid.ids[::-1]   # top-down views, not copies
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        for r in range(0, h, _BLOCK_ROWS):
            rows = np.s_[r:r + _BLOCK_ROWS]
            fh.write(_PALETTE.take(_codes(labels[rows], ids[rows]), axis=0))
