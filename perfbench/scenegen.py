"""Seeded explicit scenes: a user's own curve and frame, neither normalized.

Each scene is a surface in R^3 (m = 2) with a Fourier directrix that is
not unit speed and a one-field Fourier frame that is not unit length, so
ingest must reparametrize the directrix by arclength and orthonormalize
the frame before `analyze` runs.

The family is built so its expected verdicts are known in closed form:

- directrix (a cos t + e1 cos 2t, b sin t + e2 sin 2t, e3 cos t + c sin 2t)
  with a, b >= 1.2, |e_i| <= 0.1 and c >= 0.4, so its speed is at least
  1 everywhere and at least 1.28 at t = 0;
- ruling X = (cos t, sin t, p + q sin 2t) with p >= 0.2, so |X| > 1. The
  horizontal parts of X and X' are orthogonal and X' has a unit one, so
  X' is never parallel to X: the degree is 1 at every t;
- det(gamma'(0), X(0), X'(0)) = 2c - 2q (b + 2 e2) >= 2 (0.4 - 0.27) > 0,
  so the patch is not developable: rank-one verdict false and a single
  non-rank-one region.

The same seed gives the same scene. Scenes are never redrawn or dropped:
a scene the program fails on counts as a failed operation.
"""

from __future__ import annotations

import math

import numpy as np

EXPECTED = {"degree": 1, "kinds": ["non_rank_one"], "rank_one": False}


def _coord(constant=0.0, cos=(), sin=()) -> dict:
    return {"constant": float(constant), "cos": [float(v) for v in cos],
            "sin": [float(v) for v in sin], "omega": 1.0}


def explicit_scene(seed: int) -> dict:
    """The explicit scene for `seed`, as a schema-valid scene document."""
    rng = np.random.default_rng([seed, 0x5CE7E])
    a, b = rng.uniform(1.2, 1.6, size=2)
    e1, e2, e3 = rng.uniform(-0.1, 0.1, size=3)
    c = rng.uniform(0.4, 0.6)
    p = rng.uniform(0.2, 0.4)
    q = rng.uniform(0.05, 0.15)
    return {
        "schema": "ruledkit.scene/v1",
        "ambient_dim": 3,
        "m": 2,
        "interval": [0.0, 2.0 * math.pi],
        "directrix": {"kind": "fourier", "coordinates": [
            _coord(cos=[a, e1]),
            _coord(sin=[b, e2]),
            _coord(cos=[e3], sin=[0.0, c]),
        ]},
        "frame": [{"kind": "fourier", "coordinates": [
            _coord(cos=[1.0]),
            _coord(sin=[1.0]),
            _coord(constant=p, sin=[0.0, q]),
        ]}],
    }
