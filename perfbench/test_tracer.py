"""Tests for the benchmark's tracer and reference; run with
``python3 -m pytest perfbench`` from the repository root."""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import waverep  # noqa: E402
from waverep import checkpoint, cli, encoder, training  # noqa: E402

import reference  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    #        a [0, 10]
    #        |- b [1, 4] (recorded a backward closure)
    #        |  `- c [2, 3]
    #        `- b.bwd [5, 9]
    spans = [
        ["a", "call", -1, 0.0, 10.0, False],
        ["b", "call", 0, 1.0, 4.0, True],
        ["c", "call", 1, 2.0, 3.0, False],
        ["b", "bwd", 0, 5.0, 9.0, False],
    ]
    st = aggregate(spans)
    assert (st[("a", "call")].total_s, st[("a", "call")].self_s) == (10.0, 3.0)
    assert (st[("b", "call")].total_s, st[("b", "call")].self_s) == (3.0, 2.0)
    assert st[("b", "call")].recorded == 1
    assert (st[("c", "call")].total_s, st[("c", "call")].self_s) == (1.0, 1.0)
    assert (st[("b", "bwd")].calls, st[("b", "bwd")].self_s) == (1, 4.0)
    assert sum(s.self_s for s in st.values()) == 10.0


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.mod defines outer() -> inner(); fakepkg.user imports outer."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")
    exec("def inner():\n    return 1\n\ndef outer():\n    return inner() + 1\n"
         "def counting(n):\n    yield from range(n)\n", mod.__dict__)
    for f in ("inner", "outer", "counting"):
        getattr(mod, f).__module__ = "fakepkg.mod"
    user.outer = mod.outer
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return mod, user


def test_wrappers_nest_patch_every_binding_and_restore(fake_package):
    mod, user = fake_package
    original = mod.outer
    ticks = iter(range(100))
    tracer = Tracer(package="fakepkg", clock=lambda: float(next(ticks)))
    with tracer:
        assert user.outer is mod.outer is not original
        assert user.outer() == 2
        assert list(mod.counting(2)) == [0, 1]
    assert user.outer is mod.outer is original
    st = tracer.stats()
    # outer [0, 3] holds inner [1, 2]
    assert (st[("mod.outer", "call")].total_s, st[("mod.outer", "call")].self_s) == (3.0, 2.0)
    assert st[("mod.inner", "call")].self_s == 1.0
    # one span per next(), the last one ends the generator
    assert st[("mod.counting", "call")].calls == 3


def test_missing_name_is_reported_not_fatal():
    tracer = Tracer(required=("encoder.no_such_function", "encoder.conv1"))
    with tracer:
        encoder.encode_values(np.ones(64), encoder.init_encoder(4, 16, 2, 8, 1))
    assert tracer.missing == ["encoder.no_such_function"]
    assert tracer.stats()[("encoder.conv1", "call")].calls == 1


def _tiny_training(tmp_path, name):
    rng = np.random.default_rng(3)
    voice = [rng.normal(0, 0.3, 512) for _ in range(4)]
    accomp = [rng.normal(0, 0.3, 512) for _ in range(4)]
    enc = encoder.init_encoder(8, 32, 3, 16, 2, seed=1)
    dec = waverep.init_decoder(8, 32, 16)
    cfg = training.TrainConfig(batch_size=2, epochs=2, variant="sinkhorn", early_stop=False, seed=5)
    training.train(voice, accomp, enc, dec, cfg)
    path = tmp_path / name
    checkpoint.save_model(path, enc, dec)
    return path.read_bytes()


def test_traced_training_writes_identical_checkpoint(tmp_path):
    plain = _tiny_training(tmp_path, "plain.bin")
    tracer = Tracer()
    with tracer:
        traced = _tiny_training(tmp_path, "traced.bin")
    assert traced == plain
    st = tracer.stats()
    # every backward closure is charged to the op that recorded it
    # 8 trained items (2 epochs x 4), each encoding twice and decoding once
    expected = {"encoder.conv1": 16, "encoder.conv2_dilated": 16,
                "decoder.build_kernels": 8, "losses.sinkhorn_loss": 8}
    assert {op: st[(op, "bwd")].calls for op in expected} == expected
    assert st[("decoder.build_kernels", "call")].recorded == 8
    assert st[("training.adam_step", "call")].calls == 4
    inside = tracer.stats(under="training.adam_step")
    assert set(inside) == {("training.adam_step", "call")}
    assert inside[("training.adam_step", "call")].calls == 4
    assert cli.train is training.train  # restored


def test_reference_matches_program():
    rng = np.random.default_rng(0)
    enc = encoder.init_encoder(6, 40, 3, 16, 2, seed=2)
    dec = waverep.init_decoder(6, 40, 16)
    dec.freq = dec.freq + 0.01
    dec.phase = rng.normal(size=6)
    x = rng.normal(size=300)
    a = encoder.encode_values(x, enc)
    y = waverep.decode_values(a, dec, x.size)
    a_ref = reference.encode(x, enc.kernels, enc.dilated_kernels, enc.stride, enc.dilation)
    y_ref = reference.decode(a_ref, dec.freq, dec.phase, dec.modulator, dec.stride, x.size)
    assert reference.rel_error(a, a_ref) <= reference.REL_TOL
    assert reference.rel_error(y, y_ref) <= reference.REL_TOL
    assert reference.rel_error(y, y_ref + 1e-6 * np.linalg.norm(y_ref)) > reference.REL_TOL
