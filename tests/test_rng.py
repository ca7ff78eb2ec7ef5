import hashlib

import numpy as np
import pytest

from tucksketch.rng import RngStream


def test_same_seed_bit_identical():
    a = RngStream(123).normal(17, 9)
    b = RngStream(123).normal(17, 9)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngStream(1).normal(8, 8)
    b = RngStream(2).normal(8, 8)
    assert not np.array_equal(a, b)


def test_uniform_open_interval():
    u = RngStream(0).uniform(100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_normal_moments():
    z = RngStream(7).normal(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.05


def test_substreams_uncorrelated():
    # two stream ids under one seed
    a = RngStream(99, 0).normal(10_000)
    b = RngStream(99, 1).normal(10_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05
    assert not np.array_equal(a, b)


def test_normal_matrix_layout_deterministic():
    # the same draws fill a matrix first-index-fastest
    flat = RngStream(5).normal(12)
    mat = RngStream(5).normal(4, 3)
    assert np.array_equal(mat, flat.reshape((4, 3), order="F"))


def test_signs_matrix_layout_deterministic():
    # the same draws fill a matrix first-index-fastest
    flat = RngStream(5).signs(12, 1).ravel()
    mat = RngStream(5).signs(4, 3)
    assert np.array_equal(mat, flat.reshape((4, 3), order="F"))


def test_signs_values_and_balance():
    z = RngStream(7).signs(1000, 100)
    assert z.dtype == np.float64
    assert np.all(np.abs(z) == 1.0)
    assert abs(z.mean()) < 0.02


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-1, 2)])
def test_signs_validates_shape(rows, cols):
    with pytest.raises(ValueError):
        RngStream(0).signs(rows, cols)


@pytest.mark.parametrize(
    "draw, name",
    [
        pytest.param(lambda: RngStream(2.7), "seed", id="RngStream(2.7)"),
        pytest.param(lambda: RngStream(2, 0.5), "stream", id="RngStream(2,0.5)"),
        pytest.param(lambda: RngStream(0).uniform(3.0), "n", id="uniform(3.0)"),
        pytest.param(lambda: RngStream(0).normal(2.7), "rows", id="normal(2.7)"),
        pytest.param(lambda: RngStream(0).normal(2, 3.0), "cols", id="normal(2,3.0)"),
        pytest.param(lambda: RngStream(0).signs(2.0, 3), "rows", id="signs(2.0,3)"),
        pytest.param(lambda: RngStream(0).signs(2, 3.5), "cols", id="signs(2,3.5)"),
        pytest.param(lambda: RngStream(0).index_sample(5.0, 2), "n", id="index_sample(5.0,2)"),
        pytest.param(lambda: RngStream(0).index_sample(5, 2.0), "k", id="index_sample(5,2.0)"),
    ],
)
def test_keys_and_sizes_take_integers_only(draw, name):
    # int() would truncate: RngStream(2.7) would draw RngStream(2)'s stream
    with pytest.raises(ValueError, match=f"^{name} takes integers only"):
        draw()


def test_keys_and_sizes_take_numpy_integers():
    a = RngStream(np.uint64(5), np.int32(1)).normal(np.int64(4), np.int8(3))
    assert np.array_equal(a, RngStream(5, 1).normal(4, 3))


@pytest.mark.parametrize("shape", [(-1,), (-1, 2), (2, -1), (-1, -1)])
def test_normal_rejects_a_negative_size(shape):
    with pytest.raises(ValueError, match="must be nonnegative"):
        RngStream(0).normal(*shape)


def test_normal_of_zero_size_is_empty():
    assert RngStream(0).normal(0).shape == (0,)
    assert RngStream(0).normal(0, 3).shape == (0, 3)


def test_sequential_draws_advance_state():
    s = RngStream(3)
    first = s.uniform(10)
    second = s.uniform(10)
    assert not np.array_equal(first, second)


def test_index_sample_distinct_and_in_range():
    s = RngStream(11)
    for _ in range(50):
        idx = s.index_sample(20, 7)
        assert len(set(idx.tolist())) == 7
        assert idx.min() >= 0 and idx.max() < 20
    assert np.array_equal(RngStream(4).index_sample(30, 10), RngStream(4).index_sample(30, 10))


def test_index_sample_full_and_empty():
    assert sorted(RngStream(0).index_sample(5, 5).tolist()) == [0, 1, 2, 3, 4]
    assert RngStream(0).index_sample(5, 0).size == 0
    with pytest.raises(ValueError):
        RngStream(0).index_sample(3, 4)


def test_index_sample_roughly_uniform():
    s = RngStream(2)
    counts = np.zeros(10)
    trials = 4000
    for _ in range(trials):
        counts[s.index_sample(10, 3)] += 1
    freq = counts / (3 * trials)
    assert np.all(np.abs(freq - 0.1) < 0.02)


# sha256 of the raw bytes of each draw, recorded from the original
# concatenate-based Box-Muller; any change to the bit stream fails here.
# A draw list "a;b" hashes the last draw, after the earlier ones advanced
# the stream.
GOLDEN_DRAWS = {
    (0, 0): {
        "uniform(1001)": "ce711c3b1dc84b3de1a5f081f31b43ccd7447b58266d642a705b565e8785a7ff",
        "normal(1001)": "37bf1a30f4656879ca6aeaed3042f943dad6e677ebe46457b90a6725a7d8af38",
        "normal(1000)": "40aeb25d5af6d0ae8618cffa37ae9961132b177f6e911acf3fe4501cf9763a11",
        "normal(37,11)": "d0aa9946e05c80adb3758533c24c44faedfffe5c084d28ee1c6165a6744a59e9",
        "normal(5);normal(8,3)": "df8fb08e2416397e8eb2cb9bd959117a70dafb2a2fba98f52aa26712a9424acf",
    },
    (7, 3): {
        "uniform(1001)": "e400ceb4df83826f49421eab064f83644d8388e9f11c9308aea84c9db988bfc2",
        "normal(1001)": "bd06b9548fc45afca5c2329d0237bc253e8ae9c854d0241d7b4a09cdd8d12ba5",
        "normal(1000)": "9f66ec71661b2f908c0948cb863bb06519c8f1deb32aa9dbba8bddc8cdd4032b",
        "normal(37,11)": "d8f6cfb222a0cb10c9f382053acb7983f0c19ad3d82394c64303185cb5aa6656",
        "normal(5);normal(8,3)": "5c9198190920b345c6fd56486074000db7d9d5ddd6f88a3b12bc51f09a8cd0e3",
    },
    (2**64 - 1, 12345): {
        "uniform(1001)": "492c17881ba34ce60135d22c181a740bf30d0b86b89f25262718f362d8473910",
        "normal(1001)": "aad366ed5460779c2ff6da27cd8f05b8758b6ff55172c95cd67e520126b63251",
        "normal(1000)": "3daa6124324fcd3574a531bc107e7df96ccbe8bcd7ea29400d5b05178a1e5af1",
        "normal(37,11)": "000e7b8a3f4b280e24889cd59eb7e31469c9a9289a8f6b8ceb38fd4555ec73f6",
        "normal(5);normal(8,3)": "381760703846ac79274f671d7e5f8c551a851b65d84aa89688d9bda6e9fcf710",
    },
    (11, 2): {
        "normal(1)": "776d0a3a62ddd6c3019c22fec1b22b18d28a055a794ef3fc27993118a02bb056",
        "normal(100001)": "72a9f38097681c2af6ec6da7e2f3bbe092c624035387e7ceae338aa44d4a5434",
    },
}

# the same for signs, recorded from a bit-by-bit reading of the raw words;
# "signs(5,3);normal(4)" pins the advance of one raw word per 64 entries
GOLDEN_SIGNS = {
    (0, 0): {
        "signs(37,11)": "7a973a8cd9298187f2ac2082a5846dda49a222dc71c36ccc84fd7f6975e0d45e",
        "signs(64,1)": "617d151e8afb36b720b7bbeed3b487df6a4f62584fca1223e8748358068a5ada",
        "signs(1,65)": "1f5020583ccfc3f50ad9a9dd4306a514677bfa417c4ffaa31e073c485bc8e5e4",
        "signs(5,3);normal(4)": "f5da39c23f40cc47cb2a07c2176e4be0c0c8307baa33eb4f8af1ea12bf8ac219",
    },
    (7, 3): {
        "signs(37,11)": "9361e2dacf7cb65a54b301b975b67bbd2254970b5071fe04e85e2b9bc0f4cc7e",
        "signs(64,1)": "f576bfced62972aa025ee4d59c89d271a12d83215232fe523916d0c8e226557d",
        "signs(1,65)": "780a8da6cd2cdad40a4370e77b61fb75dbdc9692a0cc6ec520fa212dbcf19227",
        "signs(5,3);normal(4)": "5a0106b591ec2b3852e999975eff9a8b5a5a411f148974b8cc2458110312e184",
    },
}


def _draw(key, what):
    s = RngStream(*key)
    for call in what.split(";"):
        name, args = call.rstrip(")").split("(")
        out = getattr(s, name)(*(int(a) for a in args.split(",")))
    return out


@pytest.mark.parametrize(
    "key,what", [(k, w) for k, draws in GOLDEN_DRAWS.items() for w in draws]
)
def test_draws_match_golden_hashes(key, what):
    out = _draw(key, what)
    assert out.dtype == np.float64
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN_DRAWS[key][what]


@pytest.mark.parametrize(
    "key,what", [(k, w) for k, draws in GOLDEN_SIGNS.items() for w in draws]
)
def test_signs_match_golden_hashes(key, what):
    out = _draw(key, what)
    assert out.dtype == np.float64
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN_SIGNS[key][what]
