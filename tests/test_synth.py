import numpy as np
import pytest

from waverep.dataset import is_active, load_and_downmix, segment
from waverep.synth import synth_data


def test_fixed_seed_bitwise_identical_stems(tmp_path):
    a = synth_data(tmp_path / "a", seed=42, n_tracks=2, duration=2.0)
    b = synth_data(tmp_path / "b", seed=42, n_tracks=2, duration=2.0)
    for (va, aa), (vb, ab) in zip(a, b):
        assert va.read_bytes() == vb.read_bytes()
        assert aa.read_bytes() == ab.read_bytes()


def test_different_seeds_differ(tmp_path):
    a = synth_data(tmp_path / "a", seed=1, n_tracks=1, duration=1.0)
    b = synth_data(tmp_path / "b", seed=2, n_tracks=1, duration=1.0)
    assert a[0][0].read_bytes() != b[0][0].read_bytes()


def test_voice_segments_are_active(tmp_path):
    pairs = synth_data(tmp_path, seed=0, n_tracks=3, duration=5.0)
    active = total = 0
    for voice_path, _ in pairs:
        for seg in segment(load_and_downmix(voice_path), 44100, 44100):
            total += 1
            active += is_active(seg)
    assert active / total >= 0.9


def test_stems_stay_in_range(tmp_path):
    for voice_path, accomp_path in synth_data(tmp_path, seed=3, n_tracks=2, duration=2.0):
        for path in (voice_path, accomp_path):
            x = load_and_downmix(path)
            assert np.max(np.abs(x)) <= 1.0
            assert np.max(np.abs(x)) > 0.05


def test_zero_duration_rejected(tmp_path):
    with pytest.raises(ValueError, match="one sample"):
        synth_data(tmp_path / "none", seed=0, n_tracks=1, duration=0.0)
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("kwargs, name", [
    ({"duration": float("inf")}, "duration"),
    ({"duration": float("nan")}, "duration"),
    ({"n_tracks": 0}, "n_tracks"),
])
def test_bad_setting_rejected_before_writing(tmp_path, kwargs, name):
    with pytest.raises(ValueError, match=name):
        synth_data(tmp_path / "none", **{"seed": 0, "n_tracks": 1, "duration": 1.0, **kwargs})
    assert not (tmp_path / "none").exists()


def test_one_millisecond_still_writes_stems(tmp_path):
    for path in synth_data(tmp_path, seed=0, n_tracks=1, duration=0.001)[0]:
        assert load_and_downmix(path).size == 44
