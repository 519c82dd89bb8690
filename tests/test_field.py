"""Modulus validation and the seeded sampling contract."""

from __future__ import annotations

import numpy as np
import pytest

from sgcode.field import (
    DEFAULT_MODULUS,
    INT64_SAFE_MODULUS,
    NotPrime,
    SeededRng,
    TooLarge,
    derive_seed,
    make_field,
    sample_array,
    uniform_ints,
)

MERSENNE_61 = (1 << 61) - 1


# ---- modulus validation ------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5, 7, 65537, DEFAULT_MODULUS, MERSENNE_61])
def test_make_field_accepts_primes(q):
    assert make_field(q).q == q


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9, 561, 2147483646, (1 << 61) + 1])
def test_make_field_rejects_composites(q):
    # 561 is a Carmichael number; trial division alone would be fooled by
    # a composite with only large factors, so the witness loop must run.
    with pytest.raises(NotPrime):
        make_field(q)


@pytest.mark.parametrize("q", [1 << 62, (1 << 62) + 1, 1 << 80])
def test_make_field_rejects_oversized(q):
    with pytest.raises(TooLarge):
        make_field(q)


def test_default_modulus_is_the_int64_cutoff():
    assert DEFAULT_MODULUS == INT64_SAFE_MODULUS == 2147483647
    assert make_field(DEFAULT_MODULUS).dtype() is np.int64
    assert make_field(MERSENNE_61).dtype() is object


# ---- seed derivation and raw streams -----------------------------------------


def test_derive_seed_is_deterministic_and_sensitive():
    s = derive_seed(42, "coding")
    assert s == derive_seed(42, "coding")
    assert s != derive_seed(43, "coding")
    assert s != derive_seed(42, "coding2")
    assert 0 <= s < 1 << 64


def test_rng_stream_is_reproducible():
    a = SeededRng(7).raw(32)
    b = SeededRng(7).raw(32)
    assert a.dtype == np.uint64
    assert np.array_equal(a, b)


def test_rng_spawn_is_deterministic_and_distinct():
    parent = SeededRng(7)
    child = parent.spawn("x")
    assert child.seed == derive_seed(7, "x")
    assert np.array_equal(child.raw(8), SeededRng(7).spawn("x").raw(8))
    assert not np.array_equal(SeededRng(7).raw(8), SeededRng(7).spawn("x").raw(8))


def test_rng_rejects_out_of_range_seeds():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(1 << 64)


# ---- uniform sampling --------------------------------------------------------


def test_uniform_ints_respects_bound_and_determinism():
    vals = uniform_ints(SeededRng(3), 10, 1000)
    assert vals.shape == (1000,)
    assert int(vals.max()) < 10
    assert np.array_equal(vals, uniform_ints(SeededRng(3), 10, 1000))


def test_uniform_ints_edge_bounds():
    assert uniform_ints(SeededRng(0), 1, 50).tolist() == [0] * 50
    assert uniform_ints(SeededRng(0), 5, 0).size == 0
    with pytest.raises(ValueError):
        uniform_ints(SeededRng(0), 0, 1)


def test_uniform_ints_matches_rejection_oracle():
    # Independent replay of the documented contract: walk the same raw
    # 64-bit stream, drop words in the final partial block, reduce mod bound.
    bound = 1000000007
    want = uniform_ints(SeededRng(11), bound, 200)
    raw = SeededRng(11).raw(208)
    threshold = (1 << 64) - ((1 << 64) % bound)
    kept = [int(w) % bound for w in raw if int(w) < threshold][:200]
    assert want.tolist() == kept


def test_uniform_ints_frequency_sanity():
    # q = 2 with a fixed seed: the bit average sits near one half.
    bits = uniform_ints(SeededRng(1), 2, 10000)
    mean = float(np.mean(bits))
    assert 0.45 <= mean <= 0.55


def test_sample_array_dtype_follows_modulus():
    small = sample_array(SeededRng(5), make_field(DEFAULT_MODULUS), 64)
    big = sample_array(SeededRng(5), make_field(MERSENNE_61), 64)
    assert small.dtype == np.int64
    assert big.dtype == object
    assert all(0 <= int(v) < MERSENNE_61 for v in big)
