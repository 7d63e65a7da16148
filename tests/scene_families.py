"""Seeded scenes of known class, for verdicts that follow from the
construction rather than from a stored answer.

`cone_scene(seed, ambient_dim)` is a cone over a planar Fourier
directrix, given the way a user would write it: neither the directrix
nor the ruling is normalized, so ingest reparametrizes and
orthonormalizes both.

- directrix gamma(t) = (a cos t + e1 cos 2t, b sin t + e2 sin 2t, 0) with
  a, b in [1.2, 2] and |e_i| <= 0.1. Its speed is at least
  min(a, b) - 2 max|e_i| >= 1, and at t = pi/2 it is at least a >= 1.2,
  so the directrix is regular and not unit speed;
- ruling X = gamma - apex with apex = (p, q, h), |p|, |q| <= 0.3 and
  h in [1, 1.5]. Then |X| >= h >= 1 everywhere, and at t = 0
  |X|^2 >= (a - |e1| - |p|)^2 + h^2 > 1, so X is not unit length;
- every ruling gamma(t) + u X(t) = apex + (1 + u) X(t) passes through the
  apex at u = -1: the patch is a cone, rank one, with the apex as its
  striction point. Its degree is 1 at every t: X' = gamma' lies in the
  plane z = 0 and is nonzero, while X has z = -h != 0, so X' is never
  parallel to X and the unit ruling X/|X| turns. The sheet is one point,
  so its Jacobian rank is 0 = m - 2: the region is conical.

In R^4 the scene adds the constant field e4 to the frame. The patch is
the cone times a line, sigma(t, u) + u2 e4: e4 is orthogonal to the cone
and never moves, so the degree stays 1, the Gauss map still turns along
t only (rank one), and the sheet is the line apex + u2 e4, whose
Jacobian rank 1 = m - 2 makes the region conical again.

The same seed gives the same scene; scenes are never redrawn or dropped,
so a seed that fails is a defect.
"""

from __future__ import annotations

import math

import numpy as np

CONE_EXPECTED = {"degree": 1, "kinds": ["conical"], "rank_one": True}


def _coord(constant=0.0, cos=(), sin=()) -> dict:
    return {"constant": float(constant), "cos": [float(v) for v in cos],
            "sin": [float(v) for v in sin], "omega": 1.0}


def cone_scene(seed: int, ambient_dim: int = 3) -> tuple[dict, np.ndarray]:
    """The cone scene for `seed` in R^3 or R^4, as a schema-valid scene
    document, and its apex (ambient_dim,)."""
    rng = np.random.default_rng([seed, 0xC0E])
    a, b = rng.uniform(1.2, 2.0, size=2)
    e1, e2 = rng.uniform(-0.1, 0.1, size=2)
    p, q = rng.uniform(-0.3, 0.3, size=2)
    h = rng.uniform(1.0, 1.5)
    pad = [_coord()] * (ambient_dim - 3)
    directrix = [_coord(cos=[a, e1]), _coord(sin=[b, e2]), _coord()] + pad
    ruling = [_coord(-p, cos=[a, e1]), _coord(-q, sin=[b, e2]), _coord(-h)] + pad
    frame = [{"kind": "fourier", "coordinates": ruling}]
    if ambient_dim == 4:
        frame.append({"kind": "constant", "value": [0.0, 0.0, 0.0, 1.0]})
    scene = {
        "schema": "ruledkit.scene/v1",
        "ambient_dim": ambient_dim,
        "m": len(frame) + 1,
        "interval": [0.0, 2.0 * math.pi],
        "directrix": {"kind": "fourier", "coordinates": directrix},
        "frame": frame,
    }
    return scene, np.array([p, q, h] + [0.0] * (ambient_dim - 3))
