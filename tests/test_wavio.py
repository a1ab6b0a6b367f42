import re
import struct

import numpy as np
import pytest

from waverep.errors import DataError
from waverep.wavio import read_wav, write_wav

from conftest import _wav_bytes, write_float32, write_pcm16, write_pcm24


def test_pcm16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    write_pcm16(path, np.array([[-32768], [32767], [0], [16384]]))
    samples, rate = read_wav(path)
    assert rate == 44100
    assert samples[0, 0] == -1.0
    assert samples[1, 0] == pytest.approx(32767 / 32768)
    assert samples[2, 0] == 0.0
    assert samples[3, 0] == pytest.approx(0.5)


def test_pcm24_scaling(tmp_path):
    path = tmp_path / "a.wav"
    write_pcm24(path, np.array([-(2**23), 2**23 - 1, 0, -1]))
    samples, _ = read_wav(path)
    assert samples[0, 0] == -1.0
    assert samples[1, 0] == pytest.approx((2**23 - 1) / 2**23)
    assert samples[2, 0] == 0.0
    assert samples[3, 0] == pytest.approx(-1 / 2**23)


def test_float32_passthrough(tmp_path):
    path = tmp_path / "a.wav"
    values = np.array([0.25, -0.125, 1.5], dtype=np.float32)  # >1 allowed, no clipping
    write_float32(path, values)
    samples, _ = read_wav(path)
    np.testing.assert_array_equal(samples[:, 0], values.astype(np.float64))


def test_stereo_shape(tmp_path):
    path = tmp_path / "a.wav"
    write_pcm16(path, np.array([[100, -100], [200, -200]]))
    samples, _ = read_wav(path)
    assert samples.shape == (2, 2)


def test_extensible_wrapper(tmp_path):
    # WAVE_FORMAT_EXTENSIBLE wrapping PCM16: real tag is in the SubFormat GUID
    fmt = struct.pack("<HHIIHH", 0xFFFE, 1, 44100, 44100 * 2, 2, 16)
    fmt += struct.pack("<HHI", 22, 16, 4)
    fmt += struct.pack("<H", 1) + b"\x00\x00" + b"\x00" * 12
    payload = np.array([16384, -16384], dtype="<i2").tobytes()
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    path = tmp_path / "ext.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    samples, _ = read_wav(path)
    np.testing.assert_allclose(samples[:, 0], [0.5, -0.5])


def test_odd_chunk_word_alignment(tmp_path):
    blob = _wav_bytes(1, 1, 44100, 16, np.array([8192], dtype="<i2").tobytes())
    # splice an odd-sized junk chunk between fmt and data
    head, data = blob.split(b"data")
    junk = b"junk" + struct.pack("<I", 3) + b"abc\x00"  # 3 bytes + pad byte
    patched = head + junk + b"data" + data
    patched = patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]
    path = tmp_path / "odd.wav"
    path.write_bytes(patched)
    samples, _ = read_wav(path)
    assert samples[0, 0] == pytest.approx(0.25)


def test_writer_reader_roundtrip(tmp_path, rng):
    path = tmp_path / "w.wav"
    x = rng.uniform(-1, 1, 1000)
    write_wav(path, x)
    samples, rate = read_wav(path)
    assert rate == 44100
    assert samples.shape == (1000, 1)
    np.testing.assert_array_equal(samples[:, 0], x.astype(np.float32).astype(np.float64))


def test_writer_is_deterministic(tmp_path, rng):
    x = rng.uniform(-1, 1, 500)
    write_wav(tmp_path / "a.wav", x)
    write_wav(tmp_path / "b.wav", x)
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


def test_writer_layout(tmp_path, rng):
    # RIFF header, fmt, fact and data chunks, then the float32 samples
    x = rng.uniform(-1, 1, 7)
    write_wav(tmp_path / "w.wav", x)
    fmt = struct.pack("<HHIIHH", 3, 1, 44100, 4 * 44100, 4, 32)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt + b"fact" + struct.pack("<II", 4, 7)
            + b"data" + struct.pack("<I", 28) + x.astype("<f4").tobytes())
    assert (tmp_path / "w.wav").read_bytes() == b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("bad", [1e39, -1e39, np.inf, np.nan])
def test_writer_refuses_samples_not_finite_in_float32(tmp_path, bad):
    path = tmp_path / "bad.wav"
    with pytest.raises(ValueError, match=re.escape(str(path))):
        write_wav(path, np.array([0.0, bad, 0.5]))
    assert not path.exists()


def test_writer_refuses_more_than_one_channel(tmp_path):
    path = tmp_path / "stereo.wav"
    with pytest.raises(ValueError, match="mono 1-D"):
        write_wav(path, np.zeros((4, 2)))
    assert not path.exists()


@pytest.mark.parametrize("blob", [
    b"",
    b"RIFF\x00\x00\x00\x00JUNK",
    b"not a wav file at all",
])
def test_not_a_wav(tmp_path, blob):
    path = tmp_path / "bad.wav"
    path.write_bytes(blob)
    with pytest.raises(DataError):
        read_wav(path)


def test_unsupported_encoding(tmp_path):
    path = tmp_path / "pcm8.wav"
    path.write_bytes(_wav_bytes(1, 1, 44100, 8, b"\x80\x7f"))
    with pytest.raises(DataError, match="unsupported"):
        read_wav(path)


def test_sub_byte_samples_with_zero_block_align(tmp_path):
    # 4-bit samples give block_align = 1 * 4 // 8 = 0, which must not reach
    # the frame-count division
    path = tmp_path / "pcm4.wav"
    path.write_bytes(_wav_bytes(1, 1, 44100, 4, b"\x00\x01"))
    with pytest.raises(DataError, match="inconsistent fmt"):
        read_wav(path)


def test_truncated_data_chunk(tmp_path):
    blob = _wav_bytes(1, 1, 44100, 16, np.zeros(4, dtype="<i2").tobytes())
    path = tmp_path / "trunc.wav"
    path.write_bytes(blob[:-5])
    with pytest.raises(DataError):
        read_wav(path)


def test_missing_file():
    with pytest.raises(DataError):
        read_wav("/nonexistent/nothing.wav")
