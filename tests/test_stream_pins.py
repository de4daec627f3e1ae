"""Golden values of the coefficient streams.

The stream is a fixed pure function of (master_seed, sample_index, n); these
pins hold it fixed across generator rewrites.  They were recorded once and
must never be re-pinned: a faster generator has to reproduce them bit for bit.
Large n is read through the range primitive, one entry at a time.
"""

import hashlib

import pytest

from randseries import SequenceStream, parse_model

MODELS = {
    "k2": parse_model("-1,1"),
    "k3w": parse_model("-1,0,1", "1/4,1/4,1/2"),
}

NS = (1, 2**20, 2**20 + 1, 2**32 - 1, 2**32, 2**32 + 1)

# (model, seed, sample index) -> (
#     value index at each n in NS,
#     indices of n = 2^20-1 .. 2^20+2,
#     indices of n = 2^32-2 .. 2^32+2,
#     indices of n = 1 .. 12,
#     SHA-256 of index_array(100_000) as little-endian int64 bytes)
GOLDEN = {
    ("k2", 0, 0): (
        (1, 1, 1, 1, 1, 0), (1, 1, 1, 1), (0, 1, 1, 0, 1),
        (1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1),
        "b451acf65de9ea86e717434755b80123042a12d4ffb4f43c68d8a22784a6db37",
    ),
    ("k2", 20170912, 7): (
        (0, 1, 1, 1, 1, 1), (0, 1, 1, 1), (0, 1, 1, 1, 1),
        (0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0),
        "b9f2431f0336d584e8e3c09fb45fc8d9a072fb8404e47b9c25b4836409a47f4c",
    ),
    ("k3w", 0, 0): (
        (2, 2, 2, 2, 2, 1), (2, 2, 2, 2), (0, 2, 2, 1, 2),
        (2, 1, 0, 2, 0, 1, 0, 2, 0, 2, 1, 2),
        "267faeaefc72e5a70555ad8a65ad929667228b3017371452c9d50cedd1e11210",
    ),
    ("k3w", 20170912, 7): (
        (0, 2, 2, 2, 2, 2), (1, 2, 2, 2), (1, 2, 2, 2, 2),
        (0, 0, 2, 0, 2, 2, 2, 1, 0, 1, 1, 1),
        "6761845d9ab6f9987a8c05fdd7b84d8b25bb6c9437f703416bfe8c9941e6568a",
    ),
}


def stream_of(key):
    name, seed, index = key
    return SequenceStream(MODELS[name], seed, index)


@pytest.mark.parametrize("key", sorted(GOLDEN))
class TestGoldenStreams:
    def test_scalar_at_pinned_n(self, key):
        s = stream_of(key)
        assert tuple(s.index_at(n) for n in NS) == GOLDEN[key][0]

    def test_range_at_pinned_n(self, key):
        s = stream_of(key)
        assert tuple(int(s.index_range(n, n + 1)[0]) for n in NS) == GOLDEN[key][0]

    def test_range_across_chunk_boundary(self, key):
        s = stream_of(key)
        assert tuple(int(i) for i in s.index_range(2**20 - 1, 2**20 + 3)) == GOLDEN[key][1]

    def test_range_across_32_bit_boundary(self, key):
        s = stream_of(key)
        assert tuple(int(i) for i in s.index_range(2**32 - 2, 2**32 + 3)) == GOLDEN[key][2]

    def test_head(self, key):
        assert stream_of(key).index_prefix(12) == GOLDEN[key][3]

    def test_index_array_digest(self, key):
        idx = stream_of(key).index_array(100_000)
        digest = hashlib.sha256(idx.astype("<i8").tobytes()).hexdigest()
        assert digest == GOLDEN[key][4]
