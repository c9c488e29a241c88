"""Slow reference implementations that cross-check the library in tests."""
from collections import deque

import numpy as np


def count_holes_reference(mask: np.ndarray) -> int:
    """Slow, dependency-free hole counter used to cross-check topology.

    Floods the complement from the border with an explicit 8-adjacency
    BFS, then counts the complement regions the flood never reached.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    comp = ~mask
    seen = np.zeros((h, w), dtype=bool)
    dq = deque()

    def _seed(j, i):
        if comp[j, i] and not seen[j, i]:
            seen[j, i] = True
            dq.append((j, i))

    for i in range(w):
        _seed(0, i)
        _seed(h - 1, i)
    for j in range(h):
        _seed(j, 0)
        _seed(j, w - 1)
    while dq:
        j, i = dq.popleft()
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                jj, ii = j + dj, i + di
                if 0 <= jj < h and 0 <= ii < w and comp[jj, ii] and not seen[jj, ii]:
                    seen[jj, ii] = True
                    dq.append((jj, ii))
    rest = comp & ~seen
    holes = 0
    for j0 in range(h):
        for i0 in range(w):
            if rest[j0, i0]:
                holes += 1
                rest[j0, i0] = False
                dq.append((j0, i0))
                while dq:
                    j, i = dq.popleft()
                    for dj in (-1, 0, 1):
                        for di in (-1, 0, 1):
                            jj, ii = j + dj, i + di
                            if 0 <= jj < h and 0 <= ii < w and rest[jj, ii]:
                                rest[jj, ii] = False
                                dq.append((jj, ii))
    return holes
