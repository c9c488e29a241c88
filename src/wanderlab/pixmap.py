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

# One row per pixel code: gray, red, black, the blues by basin id and the
# greens by track id.
_PALETTE = np.array((GRAY, RED, BLACK, *BLUES, *GREENS), dtype=np.uint8)
_BLOCK_ROWS = 32  # take widens the codes to intp: one block of rows at a time


def render_bytes(grid: RasterGrid) -> bytes:
    h, w = grid.labels.shape
    code = np.zeros((h, w), dtype=np.uint8)
    for label, first, colors in ((ATTRACTED, 3, BLUES), (DRIFTING, 3 + len(BLUES), GREENS)):
        sel = grid.labels == label
        code[sel] = first + np.mod(grid.ids[sel], len(colors))
    code[grid.labels == POLE_ADJACENT] = 1
    code[grid.labels == JULIA_SUSPECT] = 2
    top_down = code[::-1]
    blocks = (_PALETTE.take(top_down[r:r + _BLOCK_ROWS], axis=0).tobytes()
              for r in range(0, h, _BLOCK_ROWS))
    return b"".join([f"P6\n{w} {h}\n255\n".encode("ascii"), *blocks])


def render_pixmap(grid: RasterGrid, path) -> None:
    """Write the grid as a P6 file."""
    data = render_bytes(grid)
    with open(path, "wb") as fh:
        fh.write(data)
