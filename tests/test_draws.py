"""The batched uniform draws of `training` against one scalar draw per range."""

import numpy as np
import pytest

from locoman.training import CommandRanges, RandomizationEntry, _uniform, _uniforms


def test_batched_draws_match_scalar_draws_bit_for_bit():
    rng = np.random.Generator(np.random.PCG64(3603))
    for _ in range(2000):
        k = int(rng.integers(0, 8))
        lo = rng.uniform(-10.0, 10.0, k) * 10.0 ** rng.integers(-3, 4, k)
        hi = np.where(rng.random(k) < 0.3, lo, lo + rng.uniform(0.0, 5.0, k))
        ranges = list(zip(lo.tolist(), hi.tolist()))
        seed = int(rng.integers(2**32))
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _uniforms(batched, ranges) == [_uniform(scalar, b) for b in ranges]
        assert batched.random() == scalar.random()  # the same stream position


def test_degenerate_ranges_draw_nothing():
    rng = np.random.default_rng(5)
    assert _uniforms(rng, [(0.5, 0.5), (-0.0, -0.0)]) == [0.5, -0.0]
    assert rng.random() == np.random.default_rng(5).random()


@pytest.mark.parametrize("make", [
    lambda b: CommandRanges(x=b, y=(0.0, 0.0), w=(0.0, 0.0), l_ee=(0.2, 0.8),
                            p_ee=(0.0, 1.0), y_ee=(0.0, 1.0), alpha_ee=(0.0, 1.0),
                            beta_ee=(0.0, 1.0), gamma_ee=(0.0, 1.0)),
    lambda b: RandomizationEntry("friction", b, "abs")])
def test_range_whose_width_overflows_rejected(make):
    # rng.uniform raises OverflowError on such a range at every draw
    with pytest.raises(ValueError, match="overflows"):
        make((-1e308, 1e308))
