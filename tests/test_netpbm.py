import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snaketrack import netpbm
from snaketrack.errors import DecodeError


def test_p2_ascii_with_comments():
    data = b"P2\n# a comment\n3 2\n# another\n255\n0 128 255\n64 32 16\n"
    arr = netpbm.decode(data)
    assert arr.shape == (2, 3)
    assert arr[0, 0] == 0.0
    assert arr[0, 2] == 1.0
    assert arr[0, 1] == pytest.approx(128 / 255)
    assert arr[1, 2] == pytest.approx(16 / 255)


def test_p5_binary():
    data = b"P5 4 1 255\n" + bytes([0, 85, 170, 255])
    arr = netpbm.decode(data)
    assert arr.shape == (1, 4)
    assert np.allclose(arr[0], [0, 85 / 255, 170 / 255, 1.0])


def test_p5_two_byte_samples_big_endian():
    import struct

    data = b"P5 2 2 65535\n" + struct.pack(">4H", 0, 65535, 32768, 16384)
    arr = netpbm.decode(data)
    assert arr[0, 0] == 0.0
    assert arr[0, 1] == 1.0
    assert arr[1, 0] == pytest.approx(32768 / 65535)
    assert arr[1, 1] == pytest.approx(16384 / 65535)


def test_color_converts_by_luma():
    # pure red, green, blue pixels; weights 0.299 / 0.587 / 0.114
    data = b"P3 3 1 255\n255 0 0  0 255 0  0 0 255\n"
    arr = netpbm.decode(data)
    assert arr[0, 0] == pytest.approx(0.299)
    assert arr[0, 1] == pytest.approx(0.587)
    assert arr[0, 2] == pytest.approx(0.114)


def test_p6_binary_luma():
    data = b"P6 1 1 255\n" + bytes([255, 255, 255])
    arr = netpbm.decode(data)
    assert arr[0, 0] == pytest.approx(1.0)


def test_bad_magic_reports_offset():
    with pytest.raises(DecodeError) as exc:
        netpbm.decode(b"P7 1 1 255\n\x00")
    assert "P7" in str(exc.value)
    assert "byte 0" in str(exc.value)


def test_truncated_raster_reports_offset():
    with pytest.raises(DecodeError) as exc:
        netpbm.decode(b"P5 2 2 255\n\x00\x00\x00")
    assert "truncated" in str(exc.value)
    assert "byte" in str(exc.value)


def test_maxval_out_of_range():
    with pytest.raises(DecodeError):
        netpbm.decode(b"P5 2 2 70000\n" + b"\x00" * 8)
    with pytest.raises(DecodeError):
        netpbm.decode(b"P5 2 2 0\n")


def test_bad_ascii_sample():
    with pytest.raises(DecodeError) as exc:
        netpbm.decode(b"P2 2 2 255\n1 2 3 foo")
    assert "foo" in str(exc.value)


def test_zero_dimension_rejected():
    with pytest.raises(DecodeError):
        netpbm.decode(b"P5 0 2 255\n")


def test_sample_above_maxval_rejected():
    with pytest.raises(DecodeError):
        netpbm.decode(b"P2 1 1 100\n101\n")


@pytest.mark.parametrize("data", [
    b"P5\n4 4\n100\n" + bytes([200] * 16),
    b"P5\n2 1\n254\n" + bytes([0, 255]),
    b"P6\n2 2\n100\n" + bytes([50] * 11 + [101]),
    b"P5\n1 1\n300\n" + (301).to_bytes(2, "big"),
], ids=["p5-maxval100", "p5-maxval254", "p6-maxval100", "p5-maxval300"])
def test_binary_sample_above_maxval_rejected(data):
    with pytest.raises(DecodeError, match="exceeds maxval"):
        netpbm.decode(data)


def test_pgm_round_trip(tmp_path):
    rng = np.random.RandomState(0)
    gray = rng.randint(0, 256, size=(5, 7)) / 255.0
    path = tmp_path / "out.pgm"
    netpbm.write_pgm(path, gray)
    back = netpbm.read(path)
    assert back.shape == (5, 7)
    assert np.allclose(back, gray)


def test_ppm_round_trip_applies_luma(tmp_path):
    rgb = np.zeros((2, 2, 3), dtype=np.uint8)
    rgb[0, 0] = (255, 0, 0)
    rgb[1, 1] = (0, 0, 255)
    path = tmp_path / "out.ppm"
    netpbm.write_ppm(path, rgb)
    back = netpbm.read(path)
    assert back[0, 0] == pytest.approx(0.299)
    assert back[1, 1] == pytest.approx(0.114)
    assert back[0, 1] == 0.0


SEPARATORS = st.text(alphabet=" \t\n\r\x0b\x0c", min_size=1, max_size=3).map(str.encode)


@st.composite
def p2_rasters(draw):
    """(P2 bytes, samples, maxval) with random whitespace between all tokens."""
    maxval = draw(st.sampled_from([255, 65535]))
    width = draw(st.integers(1, 9))
    height = draw(st.integers(1, 9))
    samples = draw(st.lists(st.integers(0, maxval), min_size=width * height,
                            max_size=width * height))
    tokens = [b"P2", b"%d" % width, b"%d" % height, b"%d" % maxval]
    tokens += [b"%d" % v for v in samples]
    data = tokens[0]
    for token in tokens[1:]:
        data += draw(SEPARATORS) + token
    data += draw(st.sampled_from([b"", b"\n"]))
    return data, np.array(samples, dtype=np.float64).reshape(height, width), maxval


@settings(max_examples=150)
@given(p2_rasters())
def test_p2_round_trip_bitwise(raster):
    data, samples, maxval = raster
    assert np.array_equal(netpbm.decode(data), samples / maxval)


def sample_reads(monkeypatch):
    """Record every sample the tokenizer parses one at a time."""
    calls = []
    next_int = netpbm._Tokenizer.next_int

    def counting(self, what, upper=None):
        if what == "sample":
            calls.append(self.pos)
        return next_int(self, what, upper)

    monkeypatch.setattr(netpbm._Tokenizer, "next_int", counting)
    return calls


@settings(max_examples=50)
@given(p2_rasters())
def test_split_path_equals_tokenizer_bitwise(raster):
    # a comment after the last sample is never read, but sends the raster
    # through the tokenizer
    data, _, _ = raster
    fast = netpbm.decode(data)
    slow = netpbm.decode(data + b"\n# end of raster\n")
    assert np.array_equal(fast, slow)


def test_path_taken(monkeypatch):
    calls = sample_reads(monkeypatch)
    clean = netpbm.decode(b"P2 2 2 255\n1 2\n3 4\n trailing tokens are ignored")
    assert calls == []
    # the comment's digits are not samples
    commented = netpbm.decode(b"P2 2 2 255\n1 2 #5 6\n3 4\n")
    assert len(calls) == 4
    assert np.array_equal(clean, commented)
    calls.clear()
    with pytest.raises(DecodeError):
        netpbm.decode(b"P2 2 1 255\n+5 3\n")
    assert len(calls) == 1
    # 18 digits fit int64 for the array pass; a 19th sends the raster to the
    # tokenizer even when the value is in range
    calls.clear()
    netpbm.decode(b"P2 2 1 255\n000000000000000001 2\n")
    assert calls == []
    netpbm.decode(b"P2 2 1 255\n0000000000000000001 2\n")
    assert len(calls) == 2


@pytest.mark.parametrize("data, message", [
    (b"P2 2 2 255\n1 2 3 foo", "bad sample b'foo' at byte 17"),
    (b"P2 2 1 255\n+5 3\n", "bad sample b'+5' at byte 11"),
    (b"P2 2 1 255\n0001 2garbage\n", "bad sample b'2garbage' at byte 16"),
    (b"P2 2 2 255\n1 # c\n2 3 x4\n", "bad sample b'x4' at byte 21"),
    (b"P2 3 1 255\n1 2", "missing sample at byte 14"),
    (b"P2 3 1 255\n1 2 # three\n", "missing sample at byte 23"),
    (b"P2 2 1 100\n7 101\n", "sample 101 out of range at byte 13"),
    (b"P2 2 1 255\n7 0000000000000000000000000256\n", "sample 256 out of range at byte 13"),
    (b"P2 2 1 255\n7 99999999999999999999999\n",
     "sample 99999999999999999999999 out of range at byte 13"),
    # headers that declare more samples than an intp counts, let alone
    # memory holds: the first missing sample is the error
    (b"P2 4294967296 4294967296 255 1 2 3", "missing sample at byte 34"),
    (b"P3 3000000000 3000000000 255 1 2 3", "missing sample at byte 34"),
])
def test_bad_raster_messages(data, message):
    with pytest.raises(DecodeError) as exc:
        netpbm.decode(data)
    assert str(exc.value) == message


def tokenizer_samples(tok, count, maxval):
    """Reference: every sample read by the tokenizer, one at a time."""
    return np.array([tok.next_int("sample", upper=maxval) for _ in range(count)],
                    dtype=np.float64)


def outcome(data):
    try:
        return netpbm.decode(data).tobytes()
    except DecodeError as exc:
        return str(exc)


@pytest.mark.parametrize("data", [
    # bytes that wrap around in uint8 arithmetic next to digits: '/' is
    # '0' - 1, ':' is '9' + 1, and bytes from 0x80 on are negative as int8
    b"P2 2 1 255\n1/ 2\n",
    b"P2 2 1 255\n1 :2\n",
    b"P2 2 1 255\n1 2\x80\n",
    b"P2 2 1 255\n\xff1 2\n",
    b"P2 2 1 255\n1 \xb02\n",
    b"P2 2 1 255\n1 2 \xff trailing bytes are never read\n",
    # vertical tab and form feed separate tokens
    b"P2 2 2 255\n1\x0b2\x0c3\x0b\x0c4",
    # leading zeros: 18 and 19 digits, in range and out of range
    b"P2 2 1 255\n000000000000000255 000000000000000007\n",
    b"P2 2 1 255\n0000000000000000255 7\n",
    b"P2 2 1 255\n000000000000000256 7\n",
    b"P2 2 1 255\n999999999999999999 7\n",
    b"P2 2 1 255\n9999999999999999999 7\n",
    # the last token ends at the end of the data, or data ends short
    b"P2 2 1 255\n1 2",
    b"P2 2 1 255\n1 ",
    b"P2 2 1 255\n",
    b"P2 2 1 255",
    # 1x1
    b"P2 1 1 255\n7",
    b"P2 1 1 65535 65535\n",
    b"P2 1 1 1\n2\n",
    # P3, plain colour
    b"P3 2 1 255\n255 0 0 0 255 0\n",
    b"P3 1 1 255\n1 2 x\n",
], ids=lambda data: repr(data)[2:40])
def test_array_parse_equals_tokenizer(data, monkeypatch):
    fast = outcome(data)
    monkeypatch.setattr(netpbm, "_ascii_samples", tokenizer_samples)
    assert fast == outcome(data)
