"""The float cross-check of a frame, an oracle independent of the exact certifier."""
from __future__ import annotations

import numpy as np
import pytest


def numeric_frame_residual(frame) -> float:
    """Largest float deviation of the column norms from their mean, of the
    off-diagonal |Gram| from its mean, and of the frame operator from
    (N/M) times the mean norm times I; near 0 exactly when ``frame`` is an ETF."""
    a = frame.to_complex_array()
    m, n = a.shape
    g = a.conj().T @ a
    norms = g.diagonal().real
    mods = np.abs(g[~np.eye(n, dtype=bool)])
    fo = a @ a.conj().T
    return float(max(np.abs(norms - norms.mean()).max(), np.abs(mods - mods.mean()).max(),
                     np.abs(fo - n * norms.mean() / m * np.eye(m)).max()))


@pytest.fixture(scope="session")
def frame_residual():
    return numeric_frame_residual
