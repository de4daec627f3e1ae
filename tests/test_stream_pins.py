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
    # uniform thirds: thresholds off the 2^33 grid, so every draw takes the full mixer
    "k3": parse_model("-1,0,1"),
    # threshold 2^32, one bit below the 2^33 grid, and threshold 2^33, on it
    "k2w32": parse_model("-1,1", "1/4294967296,4294967295/4294967296"),
    "k2w33": parse_model("-1,1", "1/2147483648,2147483647/2147483648"),
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
    ("k3", 0, 0): (
        (2, 2, 2, 2, 2, 0), (2, 2, 2, 2), (0, 2, 2, 0, 2),
        (2, 1, 0, 2, 0, 0, 0, 2, 0, 2, 1, 2),
        "911f6f2b3c1669100cbb086243299d0dcb71b062b045212b2303295299918b25",
    ),
    ("k3", 20170912, 7): (
        (0, 2, 2, 2, 1, 1), (1, 2, 2, 2), (0, 2, 1, 1, 1),
        (0, 0, 2, 0, 2, 1, 1, 1, 0, 1, 1, 1),
        "3d82a4045faa65e00dd89057cecfbcf5caf471e58c7e4d64b4976dafca48ccab",
    ),
    # a draw below 2^32 or 2^33 has probability 2^-32 or 2^-31, so these heads
    # are all ones; TestThresholdEdgeDraws places draws on the thresholds
    ("k2w32", 0, 0): (
        (1, 1, 1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1), (1,) * 12,
        "5af7d106f91bb6f55b985936cab10e92334448e0c8a662f2814e34b3d865769e",
    ),
    ("k2w33", 20170912, 7): (
        (1, 1, 1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1), (1,) * 12,
        "5af7d106f91bb6f55b985936cab10e92334448e0c8a662f2814e34b3d865769e",
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


# -- draws placed on the thresholds --------------------------------------------
# The SplitMix64 finalizer is a bijection, so for any 64-bit draw u there is a
# position n whose draw is u.  These inverses are written out independently of
# the package, from the published constants.

_M64 = (1 << 64) - 1


def _unxorshift(y, s):
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def _unmix(u):
    z = _unxorshift(u, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _M64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _M64
    return _unxorshift(z, 30)


def _position_of_draw(stream, u):
    """The n >= 1 whose draw is u: key + n * golden = unmix(u) mod 2^64."""
    return ((_unmix(u) - stream._key) * pow(0x9E3779B97F4A7C15, -1, 1 << 64)) & _M64


EDGE_MODELS = ("k2", "k3w", "k3", "k2w32", "k2w33")


@pytest.mark.parametrize("name", EDGE_MODELS)
class TestThresholdEdgeDraws:
    """Draws one step either side of every threshold pick the index the
    definition gives (the number of thresholds at or below the draw), through
    the range path and the scalar path alike."""

    def test_index_at_threshold_edges(self, name):
        model = MODELS[name]
        s = SequenceStream(model, 20170912, 7)
        for t in model._thresholds:
            for u in (t - 2, t - 1, t, t + 1):
                n = _position_of_draw(s, u)
                assert s.draw_at(n) == u
                expected = sum(u >= c for c in model._thresholds)
                assert s.index_at(n) == expected
                assert int(s.index_range(n, n + 1)[0]) == expected
                assert s.index_range(n - 2, n + 3).tolist() == [
                    s.index_at(i) for i in range(n - 2, n + 3)]


def test_uniform_thirds_edges_need_the_last_mixer_step():
    # the draw just below each threshold is at or above it before the last
    # step, so a range path that skipped that step for uniform thirds would
    # pick the wrong index in TestThresholdEdgeDraws
    for t in MODELS["k3"]._thresholds:
        assert _unxorshift(t - 1, 31) >= t
