"""Keyed streams: every draw equals a Philox generator built from the key."""
import numpy as np
import pytest

from smjd.rng import _key, stream

TRIPLES = [(0, "regime", 0), (0, "regime", 1), (7, "paths", 0),
           (11, "firstjump", 0), (23, "qlfk/1/0", 39), (501, "paths", 1999),
           (2**63 - 1, "rsphi/0/0.0", 5), (2**64 - 1, "", 2**40)]


def _reference(seed, tag, index):
    return np.random.Generator(np.random.Philox(key=_key(seed, tag, index)))


@pytest.mark.parametrize("seed,tag,index", TRIPLES)
def test_stream_equals_philox_keyed_by_hash(seed, tag, index):
    got, want = stream(seed, tag, index), _reference(seed, tag, index)
    assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
    for draw in (lambda g: g.random(5), lambda g: g.standard_normal(5),
                 lambda g: g.exponential(2.0, 5), lambda g: g.poisson(3.0, 5)):
        a, b = draw(got), draw(want)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert repr(got.bit_generator.state) == repr(want.bit_generator.state)

