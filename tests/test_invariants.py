"""Structural invariants on randomized patches.

Random smooth frames (orthonormalized pointwise) over random unit-speed
directrices must satisfy the same structural facts as the builtin
corpus: the degree bound, orthogonality of the projected derivatives to
the ruling span, the Jacobian rank floor, and agreement of the two
degree computations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledkit import RuledPatch, SampleGrid, TolerancePolicy, rho_at
from ruledkit.fields import ComposedField, FourierField, ParameterMap
from ruledkit.multilinear import numerical_rank
from ruledkit.parametric import FramedCurve, gram_schmidt_frame, parallel_transport_frame
from ruledkit.ruledgeom import jacobian_sigma

TOL = TolerancePolicy()


def _random_fourier(rng, dim, harmonics=2):
    coords = []
    for _ in range(dim):
        coords.append((rng.uniform(-1, 1),
                       rng.uniform(-1, 1, harmonics).tolist(),
                       rng.uniform(-1, 1, harmonics).tolist(),
                       1.0))
    return FourierField(coords)


def _random_patch(seed: int, dim: int, m: int) -> RuledPatch:
    rng = np.random.default_rng(seed)
    base = _random_fourier(rng, dim)
    pmap = ParameterMap(base, (0.0, 4.0), nodes=65)
    directrix = ComposedField(base, pmap)
    grid = SampleGrid.uniform((0.0, pmap.length), 17)
    raw = [_random_fourier(rng, dim) for _ in range(m - 1)]
    frame = gram_schmidt_frame([ComposedField(f, pmap) for f in raw], grid, TOL,
                               interval=(0.0, pmap.length))
    fc = FramedCurve(dim, m, directrix, tuple(frame), (0.0, pmap.length))
    return RuledPatch(fc, grid, TOL)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([(4, 3), (5, 3), (3, 2), (6, 4)]))
def test_random_patch_structural_invariants(seed, shape):
    dim, m = shape
    p = _random_patch(seed, dim, m)
    p.fc.validate_on(p.grid, TOL)
    bound = min(m - 1, dim - m + 1)
    rng = np.random.default_rng(seed + 1)
    for t in p.grid.t_samples[::4]:
        sample = rho_at(p.fc, t, TOL)
        assert sample.degree <= bound
        # projected derivatives are orthogonal to the ruling span
        x = p.fc.frame_values(t)
        assert np.abs(sample.rho_vectors @ x.T).max() < TOL.zero_abs_tol
        u = rng.uniform(-2.0, 2.0, m - 1)
        assert numerical_rank(jacobian_sigma(p, t, u), TOL) >= m - 1


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_patch_transport_matches_rho_rank(seed):
    p = _random_patch(seed, 4, 3)
    # rank equality holds through the transport-equation derivative rule,
    # independent of step size; a coarse step keeps the sweep fast
    transported = parallel_transport_frame(p.fc, p.grid, max_step=0.02)
    for t in p.grid.t_samples[::6]:
        derivs = np.array([f.eval(t, 1) for f in transported])
        assert numerical_rank(derivs, TOL) == rho_at(p.fc, t, TOL).degree
