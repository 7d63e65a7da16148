"""The randomized off-sheet regularity spot check: the oracle of the
off-sheet certificate (`striction.offsheet_certificate`).

`offsheet_check` draws `OFFSHEET_CHECKS` points just off a striction
sheet from a seeded SplitMix64 stream and tests each with the rank rule
on its reduced Jacobian (`jacobian_regularity`). Its t are drawn over the
sheet's range, off the grid, unless `on_grid` snaps them to the nearest
grid node, where the certificate speaks. `jacobian_regularity` evaluates
the fields at the drawn t; the package itself never does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ruledkit.ruledgeom import _reduced_jacobians, _regularity
from ruledkit.splitmix import SplitMix64

#: random points of each off-sheet regularity check
OFFSHEET_CHECKS = 32


@dataclass(frozen=True, eq=False)
class OffsheetCheck:
    """The randomized regularity spot check just off the sheet."""

    total: int
    failures: tuple  # (t, full ruling coordinates) of each irregular point

    @property
    def regular(self) -> int:
        return self.total - len(self.failures)


def jacobian_regularity(v, u: np.ndarray, tol) -> np.ndarray:
    """The rank rule's full-rank verdict at the N parameters of `v`, each at
    its own ruling position of u (N, m-1), (N,): `_regularity` of the
    reduced Jacobians on the values' frame QR and coordinates."""
    jac, _ = _reduced_jacobians(v.frame_basis()[0], v.inverse_factors(), v.coordinates(1),
                                u[:, None])
    return _regularity(jac, tol)[:, 0]


def offsheet_check(p, sheet, seed: int = 0, on_grid: bool = False,
                   reach: np.ndarray | None = None) -> OffsheetCheck:
    """Regularity of the patch just off the sheet at `OFFSHEET_CHECKS` random points.

    The SplitMix64 stream of `seed` (`splitmix.SplitMix64`) draws three
    blocks: the points' t, uniform over the grid's range (a segment's, for
    a segment patch), their uniform free coordinates, (OFFSHEET_CHECKS,
    free), and the sign of each solved coordinate's perturbation by
    +-delta, delta = 10 grid u-spacings, (OFFSHEET_CHECKS, d). With
    `on_grid`, each t moves to its nearest grid node, and `reach` (N,), if
    given, sets the distance |Delta| off the sheet of the points at each
    node in place of sqrt(d) delta, along the drawn signs. The patch must be
    regular at every point, by the rank rule on the reduced Jacobians
    (`jacobian_regularity`), the same route as the second-form scan's.
    One evaluation of the curve at the drawn t and its frame QR serve the
    solve there (`solved`) and the reduced Jacobians.
    """
    fc, grid = p.fc, p.grid
    stream = SplitMix64(seed)
    axis = grid.u_axis
    spacing = float(axis[1] - axis[0]) if axis.size > 1 else grid.u_extent / 5.0
    delta = 10.0 * spacing
    ts = stream.uniform(grid.t_samples[0], grid.t_samples[-1], OFFSHEET_CHECKS)
    u_free = stream.uniform(-grid.u_extent, grid.u_extent, (OFFSHEET_CHECKS, sheet.free_count))
    signs = stream.signs((OFFSHEET_CHECKS, sheet.d))
    offsets = delta * signs
    if on_grid:
        nodes = np.abs(ts[:, None] - grid.t_samples).argmin(axis=1)
        ts = grid.t_samples[nodes]
        if reach is not None:
            offsets = reach[nodes, None] * signs / np.sqrt(sheet.d)
    values = fc.grid_values(ts)
    u = np.concatenate([u_free, sheet.solved(ts, u_free, values) + offsets], axis=1)
    irregular = np.flatnonzero(~jacobian_regularity(values, u, p.tol))
    return OffsheetCheck(total=OFFSHEET_CHECKS,
                         failures=tuple((float(ts[i]), u[i].tolist()) for i in irregular))
