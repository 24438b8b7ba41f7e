import os
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def cli_env():
    """Environment for a `python -m proxcalc.cli` subprocess: the checkout's
    src/ in front of PYTHONPATH, which pytest's own pythonpath does not reach."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def brute_force_prox(f, lam, x, lo, hi, n=2001):
    """Grid minimizer of f(y) + ||x-y||^2/(2 lam); independent prox oracle."""
    import proxcalc as pc

    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 1:
        ys = np.linspace(lo, hi, n).reshape(-1, 1)
    else:
        axes = [np.linspace(lo, hi, int(np.sqrt(n))) for _ in range(x.size)]
        mesh = np.meshgrid(*axes, indexing="ij")
        ys = np.stack([m.ravel() for m in mesh], axis=1)
    vals = pc.evaluate_many(f, ys) + np.sum((ys - x) ** 2, axis=1) / (2 * lam)
    i = int(np.argmin(vals))
    return ys[i], float(vals[i])


def brute_force_conjugate(f, q, lo, hi, n=4001):
    """Grid supremum of <q, v> - f(v); independent conjugation oracle."""
    import proxcalc as pc

    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.size == 1:
        vs = np.linspace(lo, hi, n).reshape(-1, 1)
    else:
        axes = [np.linspace(lo, hi, int(np.sqrt(n))) for _ in range(q.size)]
        mesh = np.meshgrid(*axes, indexing="ij")
        vs = np.stack([m.ravel() for m in mesh], axis=1)
    vals = vs @ q - pc.evaluate_many(f, vs)
    return float(np.max(vals[np.isfinite(vals)]))
