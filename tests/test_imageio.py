import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tucksketch.imageio import ImageFormatError, load_image_tensor, save_image_tensor
from tucksketch.tensor import unfold


def test_load_single_pixel_pgm(tmp_path):
    path = tmp_path / "one.pgm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    x = load_image_tensor(path)
    assert x.shape == (1, 1, 1)
    assert x[0, 0, 0] == 0.0


def test_load_known_p6_payload(tmp_path):
    # 2 rows x 3 columns, channels interleaved, rows top to bottom
    payload = bytes(range(18))
    path = tmp_path / "tiny.ppm"
    path.write_bytes(b"P6\n3 2\n255\n" + payload)
    x = load_image_tensor(path)
    assert x.shape == (2, 3, 3)
    for row in range(2):
        for col in range(3):
            for chan in range(3):
                assert x[row, col, chan] == payload[(row * 3 + col) * 3 + chan]


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n  2\t1 # size\n255\n\x01\x02")
    x = load_image_tensor(path)
    assert x.shape == (1, 2, 1)
    assert x[0, 0, 0] == 1.0 and x[0, 1, 0] == 2.0


@pytest.mark.parametrize(
    "blob, pixels",
    [
        # exactly one whitespace byte ends the header; the next bytes are pixels
        (b"P5\n3 1\n255\n\n \t", [10.0, 32.0, 9.0]),
        # CR, VT and FF separate tokens as space does
        (b"P5\r2\x0b1\x0c255\r\x01\x02", [1.0, 2.0]),
        # whitespace and a comment may come before the magic
        (b"\n \t# leading comment\n\rP5 1 1 255\n\x07", [7.0]),
    ],
    ids=["payload-starts-with-whitespace", "cr-vt-ff-separators", "comment-before-magic"],
)
def test_header_variants_load(tmp_path, blob, pixels):
    path = tmp_path / "v.pgm"
    path.write_bytes(blob)
    x = load_image_tensor(path)
    assert x.shape == (1, len(pixels), 1)
    assert x[0, :, 0].tolist() == pixels


_WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_COMMENT = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
_FILLER = st.lists(st.one_of(_WHITESPACE, _COMMENT), max_size=3).map(b"".join)


def _field(value):
    # decimal fields may carry leading zeros, which int() reads
    return st.integers(0, 2).map(lambda zeros: b"0" * zeros + b"%d" % value)


@st.composite
def _pnm_files(draw):
    magic, channels = draw(st.sampled_from([(b"P5", 1), (b"P6", 3)]))
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    fields = [magic, draw(_field(width)), draw(_field(height)), draw(_field(255))]
    header = draw(_FILLER) + fields[0]
    for field in fields[1:]:
        # a separator opens with a whitespace byte, then any filler
        header += draw(_WHITESPACE) + draw(_FILLER) + field
    header += draw(_WHITESPACE)
    size = width * height * channels
    payload = draw(st.binary(min_size=size, max_size=size))
    trailer = draw(st.binary(max_size=3))  # bytes after the raster are ignored
    return header + payload + trailer, (height, width, channels), payload


@given(_pnm_files())
def test_header_grammar_roundtrip(tmp_path_factory, case):
    blob, shape, payload = case
    path = tmp_path_factory.mktemp("pnm") / "g.pnm"
    path.write_bytes(blob)
    x = load_image_tensor(path)
    assert x.shape == shape
    ref = np.frombuffer(payload, dtype=np.uint8).reshape(shape).astype(np.float64)
    assert x.tobytes(order="C") == ref.tobytes()


def test_save_then_load_roundtrip_after_rounding(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 255, size=(5, 7, 3))
    path = tmp_path / "r.ppm"
    save_image_tensor(x, path)
    loaded = load_image_tensor(path)
    assert np.array_equal(loaded, np.clip(np.rint(x), 0, 255))
    # a second trip is the identity
    save_image_tensor(loaded, path)
    assert np.array_equal(load_image_tensor(path), loaded)


def test_save_clamps_and_rounds(tmp_path):
    x = np.array([[[255.7, -3.1, 128.4]]])
    path = tmp_path / "clamp.ppm"
    save_image_tensor(x, path)
    loaded = load_image_tensor(path)
    assert loaded[0, 0, 0] == 255.0
    assert loaded[0, 0, 1] == 0.0
    assert loaded[0, 0, 2] == 128.0


@pytest.mark.filterwarnings("error")
def test_save_clamps_infinities_and_rejects_nan_before_opening(tmp_path):
    path = tmp_path / "inf.ppm"
    save_image_tensor(np.array([[[np.inf, -np.inf, 7.0]]]), path)
    assert load_image_tensor(path).ravel().tolist() == [255.0, 0.0, 7.0]
    nan = tmp_path / "nan.pgm"
    with pytest.raises(ValueError, match="NaN entry"):
        save_image_tensor(np.array([[[1.0]], [[np.nan]]]), nan)
    assert not nan.exists()


def test_save_zero_image_payload(tmp_path):
    path = tmp_path / "z.pgm"
    save_image_tensor(np.zeros((2, 2, 1)), path)
    blob = path.read_bytes()
    assert blob.endswith(b"\x00" * 4)
    assert blob.startswith(b"P5\n2 2\n255\n")


def test_grayscale_uses_p5_color_uses_p6(tmp_path):
    g = tmp_path / "g.pgm"
    save_image_tensor(np.zeros((2, 3, 1)), g)
    assert g.read_bytes().startswith(b"P5")
    c = tmp_path / "c.ppm"
    save_image_tensor(np.zeros((2, 3, 3)), c)
    assert c.read_bytes().startswith(b"P6")


def test_save_rejects_bad_shapes():
    with pytest.raises(ValueError):
        save_image_tensor(np.zeros((4, 4)), "nope.ppm")
    with pytest.raises(ValueError):
        save_image_tensor(np.zeros((4, 4, 2)), "nope.ppm")


# each malformed file and the message it is rejected with
_MALFORMED = {
    b"P4\n1 1\n255\n\x00": "unsupported magic b'P4'; expected P5 or P6",
    b"P5\n1 1\n254\n\x00": "unsupported maxval 254; expected 255",
    b"P5\n2 2\n255\n\x00\x00": "truncated payload: expected 4 bytes, found 2",
    b"P5\n1 1\n255": "truncated header",
    b"P6 16 16": "truncated header",  # header ends before its maxval
    b"P5\nx 1\n255\n\x00": "non-numeric header field",
    b"P5\n0 1\n255\n": "image dimensions must be positive",
    b"P6\n# a comment with no end": "truncated header",  # comment runs off the header
    b"": "truncated header",
    # a comment starts only where a token would; inside a token "#" is a byte
    b"P5#c 1 1 255\n\x00": "unsupported magic b'P5#c'; expected P5 or P6",
    b"P5 2#x 1 255\n\x00\x00": "non-numeric header field",
    # int() takes these, but a header field is ASCII digits only
    b"P5\n+4 1\n255\n\x00\x00\x00\x00": "non-numeric header field",
    b"P5\n1_6 1\n255\n" + bytes(16): "non-numeric header field",
    b"P5\n1 1\n2_55\n\x00": "non-numeric header field",
}


@pytest.mark.parametrize("blob", list(_MALFORMED))
def test_load_rejects_malformed(tmp_path, blob):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(ImageFormatError) as info:
        load_image_tensor(path)
    assert str(info.value) == _MALFORMED[blob]


@pytest.mark.parametrize("magic, channels", [(b"P5", 1), (b"P6", 3)])
def test_load_returns_column_major(tmp_path, magic, channels):
    # 5 rows x 4 columns, checked against a row-major copy of the payload
    payload = bytes(range(5 * 4 * channels))
    path = tmp_path / "img"
    path.write_bytes(magic + b"\n4 5\n255\n" + payload)
    x = load_image_tensor(path)
    ref = np.frombuffer(payload, dtype=np.uint8).reshape(5, 4, channels).astype(np.float64)
    assert x.flags.f_contiguous
    assert x.shape == ref.shape and x.tobytes() == ref.tobytes()
    assert np.shares_memory(unfold(x, 1), x)
    assert np.shares_memory(unfold(x, 3), x)
