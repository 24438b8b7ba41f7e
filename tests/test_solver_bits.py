"""The iterative solver's output pinned bit for bit.

``tests/golden/solver_bits.json`` holds, as ``float.hex``, the minimizer,
envelope value and residual, and the iteration count and ``converged`` flag
of ``numerical_prox`` on

- the five 2-D chains of the benchmark's solver workload at its 24 seed-1
  points (circles of radii 0.5-3.5 around each kink, six angles each);
- chains in 8-D and 16-D at lam in {0.01, 1e6, 1e300}.

A speed change to the solver must keep every byte. When a change of bytes
is deliberate, re-record with

    PYTHONPATH=src python tests/test_solver_bits.py --record

and say in the change log which solves moved and why.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import proxcalc as pc
from proxcalc.engine import numerical_prox
from proxcalc.verify import battery_samples

TABLE = Path(__file__).parent / "golden" / "solver_bits.json"

_TILT = np.array([0.3, 0.2])
_CROSSCHECK = [  # (label, f, centre of the kink)
    ("norm", pc.ScaledNorm(1.0, [0.0, 0.0]), np.zeros(2)),
    ("tilted_norm", pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), _TILT), -_TILT),
    ("quadratic_cross", pc.Quadratic([[2.0, 0.4], [0.4, 1.0]], [0.3, -0.1], 0.5), np.zeros(2)),
    ("support_box", pc.SupportBox([-1.0, -0.5], [1.0, 0.5]), np.zeros(2)),
    ("huber_1.5", pc.Envelope(pc.ScaledNorm(1.5, [0.0, 0.0]), 1.0), np.zeros(2)),
]


def _crosscheck_points(seed=1, radii=(0.5, 1.5, 2.5, 3.5), angles=6):
    """The workload's points: one seeded phase per circle and case, in order."""
    rng = np.random.default_rng(seed)
    for label, f, centre in _CROSSCHECK:
        phase = rng.uniform(0.0, 2 * np.pi, size=(len(radii), 1))
        theta = phase + 2 * np.pi * np.arange(angles) / angles
        X = np.concatenate([centre + r * np.stack([np.cos(t), np.sin(t)], axis=1)
                            for r, t in zip(radii, theta)])
        yield label, f, 1.0, X


def _high_dim_chains(d):
    rng = np.random.default_rng(d)
    U = np.linalg.qr(rng.standard_normal((d, d)))[0]
    box = pc.SupportBox(-rng.uniform(0.2, 1.0, d), rng.uniform(0.2, 1.0, d))
    return {
        "norm": pc.ScaledNorm(1.0, np.zeros(d)),
        "quadratic": pc.Quadratic((U * np.geomspace(0.01, 2.0, d)) @ U.T,
                                  rng.uniform(-0.5, 0.5, d), 0.3),
        "tilted_support_box": pc.Tilt(box, rng.uniform(-0.3, 0.3, d)),
        "support_box_plus_quadratic": pc.AddQuadratic(box, 0.4),
        "envelope_of_tilted_norm": pc.Envelope(
            pc.Tilt(pc.ScaledNorm(1.0, rng.uniform(-0.5, 0.5, d)), rng.uniform(-0.3, 0.3, d)),
            0.5),
    }


def _cases():
    yield from _crosscheck_points()
    for d in (8, 16):
        for name, f in _high_dim_chains(d).items():
            for lam in (0.01, 1e6, 1e300):
                yield f"{name}_{d}d", f, lam, battery_samples(d, 3, 3, 4.0)


def _row(f, lam, x):
    res = numerical_prox(f, lam, x)
    return {"x": [v.hex() for v in map(float, x)], "lam": lam.hex(),
            "minimizer": [v.hex() for v in map(float, res.minimizer)],
            "envelope_value": float(res.envelope_value).hex(),
            "residual": float(res.residual).hex(),
            "iterations": int(res.iterations), "converged": bool(res.converged)}


def _key(label, lam):
    return f"{label}@{lam!r}"


def _recorded():
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("label, f, lam, X", list(_cases()),
                         ids=[_key(c[0], c[2]) for c in _cases()])
def test_numerical_prox_keeps_its_bits(label, f, lam, X):
    assert [_row(f, lam, x) for x in X] == _recorded()[_key(label, lam)]


def test_the_table_covers_every_case():
    assert sorted(_recorded()) == sorted(_key(c[0], c[2]) for c in _cases())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_solver_bits.py --record")
    cases = [f'{json.dumps(_key(label, lam))}: [\n' + ",\n".join(
        json.dumps(_row(f, lam, x)) for x in X) + "]" for label, f, lam, X in _cases()]
    TABLE.write_text("{\n" + ",\n".join(cases) + "\n}\n", encoding="utf-8")  # a solve a line
    print(f"recorded {TABLE}")
