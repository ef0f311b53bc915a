"""Seed derivation must be stable, collision-free in practice, and typed."""

import pytest

from crossingsim.seeds import derive_seed


def test_same_triple_same_seed():
    assert derive_seed(42, "arrivals", 3) == derive_seed(42, "arrivals", 3)


def test_distinct_inputs_change_the_seed():
    base = derive_seed(42, "arrivals", 3)
    assert derive_seed(43, "arrivals", 3) != base
    assert derive_seed(42, "arrivalz", 3) != base
    assert derive_seed(42, "arrivals", 4) != base


def test_seed_fits_pcg64():
    for i in range(50):
        seed = derive_seed(7, "probe", i)
        assert 0 <= seed < 2**64


def test_label_index_pairs_do_not_alias():
    # "walk-1" index 2 and "walk-12" index 0 must differ: the encoding
    # separates fields, so concatenation collisions cannot happen.
    assert derive_seed(0, "walk-1", 2) != derive_seed(0, "walk-12", 0)


def test_no_collisions_over_a_large_block():
    seen = {derive_seed(123, "bulk", i) for i in range(10_000)}
    assert len(seen) == 10_000


def test_non_integer_inputs_rejected():
    with pytest.raises(TypeError):
        derive_seed("42", "arrivals", 0)
    with pytest.raises(TypeError):
        derive_seed(42, "arrivals", 1.5)
    with pytest.raises(TypeError):
        derive_seed(True, "arrivals", 0)


def test_index_defaults_to_zero():
    assert derive_seed(5, "x") == derive_seed(5, "x", 0)
