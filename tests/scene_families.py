"""Seeded scenes of known class, for verdicts that follow from the
construction rather than from a stored answer.

Every family is given the way a user would write it: neither the
directrix nor the frame is normalized, so ingest reparametrizes the
directrix by arclength and orthonormalizes the frame. Each generator
returns a schema-valid scene document; `FAMILIES` lists them all with
their expected degree, kinds and rank-one verdict. The same seed gives
the same scene; scenes are never redrawn or dropped, so a seed that
fails is a defect.

`cone_scene(seed, ambient_dim)` is a cone over a planar Fourier
directrix:

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

`cylinder_scene(seed, ambient_dim)` keeps the cone's directrix and rules
it by the constant X = (p, q, h) instead. X' = 0, so the degree is 0 at
every t, and the region is cylindrical. The patch is regular, since
gamma' lies in the plane z = 0 and is nonzero while X has z = h != 0, and
it is rank one: its tangent plane span(gamma', X) depends on t only.

`osculating_scene(seed, m, ambient_dim)` is the osculating developable
sigma = beta + u_1 beta' + ... + u_{m-1} beta^(m-1) of the moment curve
beta = b + A (t, t^2, ..., t^n), n = ambient_dim >= m, over [-1, 1], with
A = Q T for an orthogonal Q and an upper triangular T whose diagonal lies
in [0.8, 1.5], so |det A| >= 0.8^n > 0.2. For m = 2 it is the tangent
developable of beta: of a twisted cubic in R^3, of the moment curve in
R^4 and R^5.

- beta', ..., beta^(n) are independent at every t, since their matrix is
  A times a triangular matrix with diagonal 1!, ..., n!. So the
  directrix is regular, and it is not unit speed;
- the frame is X_j = beta^(j). X_j' = X_{j+1} lies in the frame span for
  j < m-1, and X_{m-1}' = beta^(m) leaves it, since n >= m: the degree is
  1 at every t;
- sigma_t = beta' + sum_j u_j beta^(j+1) is u_{m-1} beta^(m) modulo the
  frame span, so where u_{m-1} != 0 the tangent space is
  span(beta', ..., beta^(m)), which depends on t only: the patch is rank
  one, and singular exactly on u_{m-1} = 0;
- that striction sheet is beta + sum_{j<m-1} u_j beta^(j), the osculating
  developable one step down. Its Jacobian (beta' + sum_{j<m-1} u_j
  beta^(j+1), beta', ..., beta^(m-2)) has rank m-1 except where
  u_{m-2} = 0, for m = 3 the cuspidal edge beta itself, and for m = 2
  everywhere (the sheet is beta). The generic rank m-1 makes the region
  tangent. The default free axis, 5 samples on [-2, 2], contains the
  cuspidal edge's u = 0.

`moment_cone_scene(seed, ambient_dim)` is the cone over the same moment
curve beta, X = beta - apex, with apex = b + A (0, -h, 0, ..., 0),
h in [0.5, 1]. In the coordinates y = A^-1 (x - b), X = (t, t^2 + h, t^3,
...) and X' = (1, 2t, 3t^2, ...). X = lambda X' forces lambda = t from
the first entry, then t^3 = 3 t^3, so t = 0, and t^2 + h = 2 t^2, so
h = 0: X' is never parallel to X, and the degree is 1. Every ruling
passes through the apex at u = -1, so as for `cone_scene` the patch is a
cone, rank one, and conical.

`with_constant_fields(scene, k)` is the product of a scene with R^k: it
pads the scene by k coordinates and appends the constant unit fields of
the new axes to the frame. Those fields are orthogonal to the patch and
never move, so the degree and the rank-one verdict stay, the sheet is the
product of the old sheet with R^k, and its Jacobian rank and m both grow
by k: the kinds stay. `cone_scene(seed, 4)` is the cone times a line and
`cone_scene(seed, 5)` the cone times a plane.

`shift_directrix(scene, c)` moves the directrix to gamma + sum_j c_j X_j
for the scene's own frame fields X_j. Then sigma'(t, u) = sigma(t, u + c),
so the submanifold, and every verdict, stays.
"""

from __future__ import annotations

import json
import math

import numpy as np

CONE_EXPECTED = {"degree": 1, "kinds": ["conical"], "rank_one": True}


def _coord(constant=0.0, cos=(), sin=()) -> dict:
    return {"constant": float(constant), "cos": [float(v) for v in cos],
            "sin": [float(v) for v in sin], "omega": 1.0}


def _moment_curve(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """b (n,) and A (n, n) of a seeded moment curve b + A (t, ..., t^n)."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    t = np.triu(rng.uniform(-0.3, 0.3, size=(n, n)), 1) + np.diag(rng.uniform(0.8, 1.5, n))
    return rng.uniform(-0.5, 0.5, n), q @ t


def _derivative(coeffs: np.ndarray, j: int) -> np.ndarray:
    """The j-th derivative of power coefficients (..., degree + 1)."""
    for _ in range(j):
        coeffs = coeffs[..., 1:] * np.arange(1, coeffs.shape[-1])
    return coeffs


def _polynomial(coeffs: np.ndarray) -> dict:
    return {"kind": "polynomial", "coefficients": coeffs.tolist()}


def _scene(directrix: dict, frame: list, interval: tuple[float, float]) -> dict:
    return {
        "schema": "ruledkit.scene/v1",
        "ambient_dim": len(directrix.get("coordinates") or directrix["coefficients"]),
        "m": len(frame) + 1,
        "interval": [float(interval[0]), float(interval[1])],
        "directrix": directrix,
        "frame": frame,
    }


def with_constant_fields(scene: dict, k: int) -> dict:
    """The scene times R^k (see the module docstring)."""
    dim = scene["ambient_dim"]
    out = json.loads(json.dumps(scene))
    for spec in [out["directrix"], *out["frame"]]:
        if spec["kind"] == "fourier":
            spec["coordinates"] += [_coord()] * k
        elif spec["kind"] == "polynomial":
            spec["coefficients"] += [[0.0]] * k
        else:
            spec["value"] += [0.0] * k
    out["frame"] += [{"kind": "constant", "value": np.eye(dim + k)[dim + i].tolist()}
                     for i in range(k)]
    out["ambient_dim"], out["m"] = dim + k, len(out["frame"]) + 1
    return out


def shift_directrix(scene: dict, c) -> dict:
    """The scene with its directrix moved to gamma + sum_j c_j X_j."""
    out = json.loads(json.dumps(scene))
    target = out["directrix"]
    for cj, spec in zip(c, scene["frame"]):
        if spec["kind"] == "constant":
            for i, v in enumerate(spec["value"]):
                if target["kind"] == "fourier":
                    target["coordinates"][i]["constant"] += cj * v
                else:
                    target["coefficients"][i][0] += cj * v
        elif spec["kind"] == "fourier":
            for mine, theirs in zip(target["coordinates"], spec["coordinates"]):
                mine["constant"] += cj * theirs["constant"]
                for key in ("cos", "sin"):
                    width = max(len(mine[key]), len(theirs[key]))
                    mine[key] = (np.pad(mine[key], (0, width - len(mine[key])))
                                 + cj * np.pad(theirs[key], (0, width - len(theirs[key])))
                                 ).tolist()
        else:
            for i, theirs in enumerate(spec["coefficients"]):
                mine = target["coefficients"][i]
                width = max(len(mine), len(theirs))
                target["coefficients"][i] = (np.pad(mine, (0, width - len(mine)))
                                             + cj * np.pad(theirs, (0, width - len(theirs)))
                                             ).tolist()
    return out


def cone_scene(seed: int, ambient_dim: int = 3) -> tuple[dict, np.ndarray]:
    """The cone scene for `seed` in R^3, times a line in R^4 and a plane
    in R^5, as a schema-valid scene document, and its apex (ambient_dim,)."""
    rng = np.random.default_rng([seed, 0xC0E])
    a, b = rng.uniform(1.2, 2.0, size=2)
    e1, e2 = rng.uniform(-0.1, 0.1, size=2)
    p, q = rng.uniform(-0.3, 0.3, size=2)
    h = rng.uniform(1.0, 1.5)
    directrix = [_coord(cos=[a, e1]), _coord(sin=[b, e2]), _coord()]
    ruling = [_coord(-p, cos=[a, e1]), _coord(-q, sin=[b, e2]), _coord(-h)]
    scene = _scene({"kind": "fourier", "coordinates": directrix},
                   [{"kind": "fourier", "coordinates": ruling}], (0.0, 2.0 * math.pi))
    return (with_constant_fields(scene, ambient_dim - 3),
            np.array([p, q, h] + [0.0] * (ambient_dim - 3)))


def cylinder_scene(seed: int, ambient_dim: int = 3) -> dict:
    """The cone's directrix for `seed` ruled by the constant (p, q, h), in
    R^3 or times R^(ambient_dim - 3)."""
    scene, apex = cone_scene(seed, 3)
    scene["frame"] = [{"kind": "constant", "value": apex.tolist()}]
    return with_constant_fields(scene, ambient_dim - 3)


def osculating_scene(seed: int, m: int, ambient_dim: int) -> dict:
    """The osculating developable of dimension m of the seeded moment curve
    in R^ambient_dim, m <= ambient_dim."""
    rng = np.random.default_rng([seed, m, ambient_dim, 0x05C])
    b, a = _moment_curve(rng, ambient_dim)
    beta = np.concatenate([b[:, None], a], axis=1)  # power coefficients per coordinate
    return _scene(_polynomial(beta), [_polynomial(_derivative(beta, j)) for j in range(1, m)],
                  (-1.0, 1.0))


def moment_cone_scene(seed: int, ambient_dim: int) -> dict:
    """The cone over the seeded moment curve in R^ambient_dim."""
    rng = np.random.default_rng([seed, ambient_dim, 0xC0E])
    b, a = _moment_curve(rng, ambient_dim)
    h = rng.uniform(0.5, 1.0)
    beta = np.concatenate([b[:, None], a], axis=1)
    ruling = beta.copy()
    ruling[:, 0] = h * a[:, 1]  # beta - apex, apex = b - h A e2
    return _scene(_polynomial(beta), [_polynomial(ruling)], (-1.0, 1.0))


CYLINDRICAL_EXPECTED = {"degree": 0, "kinds": ["cylindrical"], "rank_one": True}
TANGENT_EXPECTED = {"degree": 1, "kinds": ["tangent"], "rank_one": True}

#: every family as name -> (scene of a seed, expected verdicts)
FAMILIES = {
    "cone_r3": (lambda seed: cone_scene(seed, 3)[0], CONE_EXPECTED),
    "cone_times_line_r4": (lambda seed: cone_scene(seed, 4)[0], CONE_EXPECTED),
    "cone_times_plane_r5": (lambda seed: cone_scene(seed, 5)[0], CONE_EXPECTED),
    "cylinder_r3": (lambda seed: cylinder_scene(seed, 3), CYLINDRICAL_EXPECTED),
    "cylinder_times_line_r4": (lambda seed: cylinder_scene(seed, 4), CYLINDRICAL_EXPECTED),
    "tangent_cubic_r3": (lambda seed: osculating_scene(seed, 2, 3), TANGENT_EXPECTED),
    "tangent_cubic_times_line_r4": (
        lambda seed: with_constant_fields(osculating_scene(seed, 2, 3), 1), TANGENT_EXPECTED),
    "tangent_moment_r4": (lambda seed: osculating_scene(seed, 2, 4), TANGENT_EXPECTED),
    "tangent_moment_r5": (lambda seed: osculating_scene(seed, 2, 5), TANGENT_EXPECTED),
    "moment_cone_r4": (lambda seed: moment_cone_scene(seed, 4), CONE_EXPECTED),
    "moment_cone_r5": (lambda seed: moment_cone_scene(seed, 5), CONE_EXPECTED),
    "osculating_m3_r4": (lambda seed: osculating_scene(seed, 3, 4), TANGENT_EXPECTED),
    "osculating_m3_r5": (lambda seed: osculating_scene(seed, 3, 5), TANGENT_EXPECTED),
    "osculating_m4_r5": (lambda seed: osculating_scene(seed, 4, 5), TANGENT_EXPECTED),
    "osculating_m4_r6": (lambda seed: osculating_scene(seed, 4, 6), TANGENT_EXPECTED),
}
