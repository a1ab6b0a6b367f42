import numpy as np
import pytest

from waverep.export import export_representation


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _rising(a):
    """Carrier frequencies already in ascending order: the image keeps the row order."""
    return np.arange(np.shape(a)[0], dtype=np.float64)


def test_csv_roundtrip_precision(rng, tmp_path):
    a = np.abs(rng.normal(size=(6, 9))) * 10.0 ** rng.integers(-4, 4, size=(6, 9))
    csv_path, _ = export_representation(a, tmp_path / "rep", _rising(a))
    back = _read_csv(csv_path)
    np.testing.assert_allclose(back, a, rtol=1e-6)


def test_one_frame_roundtrip_keeps_its_shape(rng, tmp_path):
    a = np.abs(rng.normal(size=(6, 1)))
    csv_path, _ = export_representation(a, tmp_path / "rep", _rising(a))
    back = _read_csv(csv_path)
    assert back.shape == (6, 1)
    np.testing.assert_allclose(back, a, rtol=1e-6)


def test_zero_matrix_black_image(tmp_path):
    csv_path, pgm_path = export_representation(np.zeros((4, 5)), tmp_path / "rep", np.zeros(4))
    assert np.all(_read_csv(csv_path) == 0.0)
    blob = pgm_path.read_bytes()
    assert blob.startswith(b"P5\n5 4\n255\n")
    assert set(blob.split(b"255\n", 1)[1]) == {0}


def test_one_hot_bright_pixel_at_sorted_row(tmp_path):
    a = np.zeros((3, 4))
    a[0, 2] = 7.0  # component 0 has the HIGHEST carrier -> bottom row after sorting
    freq = np.array([0.4, 0.1, 0.2])
    _, pgm_path = export_representation(a, tmp_path / "rep", carrier_freq=freq)
    pixels = np.frombuffer(pgm_path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
    img = pixels.reshape(3, 4)
    assert img[2, 2] == 255
    assert img.sum() == 255  # single bright pixel


def test_pgm_is_deterministic(rng, tmp_path):
    a = np.abs(rng.normal(size=(5, 7)))
    export_representation(a, tmp_path / "one", _rising(a))
    export_representation(a, tmp_path / "two", _rising(a))
    assert (tmp_path / "one.pgm").read_bytes() == (tmp_path / "two.pgm").read_bytes()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_nonfinite_rejected(tmp_path):
    a = np.zeros((2, 2))
    a[0, 0] = np.inf
    with pytest.raises(ValueError):
        export_representation(a, tmp_path / "rep", _rising(a))


def test_one_dimensional_rejected(tmp_path):
    with pytest.raises(ValueError, match=r"\(C, T\) matrix"):
        export_representation(np.ones(4), tmp_path / "out" / "rep", np.zeros(1))
    assert not (tmp_path / "out").exists()


def test_carrier_count_must_match_rows(tmp_path):
    with pytest.raises(ValueError, match="carrier_freq"):
        export_representation(np.ones((3, 4)), tmp_path / "out" / "rep", np.zeros(2))
    assert not (tmp_path / "out").exists()  # validated before anything is written
