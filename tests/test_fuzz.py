"""Byte-mutation fuzzing of the command line's input boundary.

Three valid inputs are mutated byte by byte: a WAV file and a checkpoint,
both read by ``reconstruct``, and a ``--config`` file read by ``train``.  The
checkpoint's CRC is recomputed after the mutation, so that the bytes reach
the parser rather than the checksum.  Whatever the bytes, ``cli.run`` exits
0, 2 or 3, raises nothing and prints no numpy warning; a refused input leaves
no output directory, and the message names the mutated file.

The examples are derandomized, so every run of the suite tries the same ones.
"""

import contextlib
import io
import shutil
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waverep.checkpoint import save_model
from waverep.cli import run
from waverep.dataset import SAMPLE_RATE
from waverep.decoder import init_decoder
from waverep.encoder import init_encoder
from waverep.wavio import write_wav

#: a valid train config; the command line sets every key that sizes the run,
#: and overrides the file, so a mutated value cannot make the run long or large
CONFIG = """# fuzzed train settings
components=4
stride=1024
kernel-len=1024
epochs=1
seed=3
loss=sinkhorn
p=2
early-stop=off
"""
SIZE_FLAGS = ["--components", "4", "--stride", "1024", "--kernel-len", "1024",
              "--kernel2-len", "2", "--dilation", "2", "--epochs", "1", "--batch", "2",
              "--lr", "1e-3", "--gaussian-std", "1e-4", "--omega", "1.0", "--lambda", "0.5",
              "--sinkhorn-iters", "5", "--tau", "1e-6"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    save_model(base / "model.bin", init_encoder(4, 16, 2, 8, 2, seed=0), init_decoder(4, 16, 8))
    t = np.arange(SAMPLE_RATE // 20) / SAMPLE_RATE
    (base / "stems").mkdir()
    write_wav(base / "stems" / "track00_voice.wav", 0.3 * np.sin(2 * np.pi * 330 * t))
    write_wav(base / "stems" / "track00_accomp.wav", 0.2 * np.sin(2 * np.pi * 2000 * t))
    return base


def _mutate(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for op, pos, byte in edits:
        if op == "insert":
            out.insert(pos % (len(out) + 1), byte)
        elif out and op == "set":
            out[pos % len(out)] = byte
        elif out:
            del out[pos % len(out)]
    return bytes(out)


# half of the edits land in the first 64 bytes, where the headers are
edits = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                           st.one_of(st.integers(0, 63), st.integers(0, 1 << 16)),
                           st.integers(0, 255)),
                 min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(target=st.sampled_from(["wav", "checkpoint", "config"]), edits=edits)
# byte 1562 is the top byte of meta/stride (8.0) and byte 1589 that of
# meta/dilation (2.0): 0x42 makes them 2**35 and 2**33, which once sized a
# 128 GiB overlap-add buffer and a 256 GiB zero padding
@example(target="checkpoint", edits=[("set", 1562, 0x42)])
@example(target="checkpoint", edits=[("set", 1589, 0x42)])
def test_mutated_input_exits_with_a_documented_code(inputs, target, edits):
    work = inputs / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    out = work / "out"
    wav, ckpt = inputs / "stems" / "track00_voice.wav", inputs / "model.bin"
    if target == "wav":
        path = work / "voice.wav"
        path.write_bytes(_mutate(wav.read_bytes(), edits))
        argv = ["reconstruct", "--checkpoint", str(ckpt), "--out", str(out), str(path)]
    elif target == "checkpoint":
        path = work / "model.bin"
        body = _mutate(ckpt.read_bytes()[:-4], edits)
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        argv = ["reconstruct", "--checkpoint", str(path), "--out", str(out), str(wav)]
    else:
        path = work / "train.cfg"
        path.write_bytes(_mutate(CONFIG.encode(), edits))
        argv = (["train", "--stems", str(inputs / "stems"), "--out", str(out),
                 "--config", str(path)] + SIZE_FLAGS)
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = run(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert [str(w.message) for w in caught] == []
    if code:
        assert not out.exists()
        assert str(path) in err.getvalue()
