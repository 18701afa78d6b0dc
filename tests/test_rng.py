import numpy as np
import pytest

from hrt.rng import SeededRng, choice_bounds, choices_from_draws


# (n, k): one item, one patch, every patch, the train_wide_grid recipe's
# (36, 2), and populations either side of the switch to the tail shuffle
@pytest.mark.parametrize("n,k,seeds,calls", [
    (1, 1, 50, 3), (9, 1, 100, 7), (9, 9, 100, 7), (2, 2, 100, 7),
    (36, 2, 200, 13), (10001, 200, 3, 2), (10001, 201, 3, 2),
    (10001, 10001, 2, 2),
])
def test_bounded_draws_equal_sequential_choice_calls(n, k, seeds, calls):
    for seed in range(seeds):
        gen = np.random.Generator(np.random.PCG64(seed))
        before = gen.normal()
        expected = [gen.choice(n, k, replace=False) for _ in range(calls)]
        after = gen.normal()

        rng = SeededRng(seed)
        assert rng.normal() == before
        highs = np.tile(choice_bounds(n, k), calls)
        draws = rng.integers(0, highs, highs.shape)
        chosen = choices_from_draws(draws.reshape(calls, -1), n, k)
        assert np.array_equal(chosen, expected)
        # the stream ends where the choice calls left it
        assert rng.normal() == after
