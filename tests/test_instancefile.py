"""Instance file format: lossless round trips and defensive parsing."""

import numpy as np
import pytest

from rlvrlab.instancefile import InstanceFormatError, load_instance, save_instance
from rlvrlab.rng import SCENARIO_STREAM, stream_rng
from rlvrlab.scenarios import orthogonal_blocks, random_features


def test_roundtrip_is_lossless(tmp_path):
    rng = stream_rng(0, SCENARIO_STREAM)
    fs = random_features(n=3, K=4, d=7, overlap=0.35, rng=rng)
    path = tmp_path / "instance.txt"
    save_instance(fs, path)
    loaded = load_instance(path)
    assert (loaded.n, loaded.K, loaded.d) == (fs.n, fs.K, fs.d)
    np.testing.assert_array_equal(loaded.correct, fs.correct)
    for a, b in zip(loaded.features, fs.features):
        np.testing.assert_array_equal(a, b)
    assert loaded.x_max == fs.x_max


def test_save_bytes_deterministic(tmp_path):
    fs = orthogonal_blocks(n=2, K=2, block_dim=2, scale=1.0, rng=stream_rng(1, SCENARIO_STREAM))
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_instance(fs, p1)
    save_instance(fs, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_is_self_describing(tmp_path):
    fs = orthogonal_blocks(n=2, K=3, block_dim=2, scale=1.0, rng=stream_rng(2, SCENARIO_STREAM))
    path = tmp_path / "inst.txt"
    save_instance(fs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rlvrlab-instance"
    assert lines[1] == "format: 1"
    assert lines[2] == "n: 2"
    assert lines[3] == "K: 3"
    assert lines[4] == "d: 4"


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something-else\nformat: 1\n")
    with pytest.raises(InstanceFormatError, match="header"):
        load_instance(path)


def test_rejects_unknown_version(tmp_path):
    fs = orthogonal_blocks(n=1, K=2, block_dim=2, scale=1.0, rng=stream_rng(3, SCENARIO_STREAM))
    path = tmp_path / "inst.txt"
    save_instance(fs, path)
    text = path.read_text().replace("format: 1", "format: 2")
    path.write_text(text)
    with pytest.raises(InstanceFormatError, match="version"):
        load_instance(path)


def test_rejects_truncated_block(tmp_path):
    fs = orthogonal_blocks(n=2, K=2, block_dim=2, scale=1.0, rng=stream_rng(4, SCENARIO_STREAM))
    path = tmp_path / "inst.txt"
    save_instance(fs, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(InstanceFormatError, match="missing row"):
        load_instance(path)


def test_rejects_wrong_row_width(tmp_path):
    fs = orthogonal_blocks(n=1, K=2, block_dim=2, scale=1.0, rng=stream_rng(5, SCENARIO_STREAM))
    path = tmp_path / "inst.txt"
    save_instance(fs, path)
    lines = path.read_text().splitlines()
    lines[-1] = "0.0 0.0 0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InstanceFormatError, match="expected 2 values"):
        load_instance(path)


def test_rejects_trailing_garbage(tmp_path):
    fs = orthogonal_blocks(n=1, K=2, block_dim=2, scale=1.0, rng=stream_rng(6, SCENARIO_STREAM))
    path = tmp_path / "inst.txt"
    save_instance(fs, path)
    path.write_text(path.read_text() + "extra line\n")
    with pytest.raises(InstanceFormatError, match="trailing"):
        load_instance(path)



@pytest.mark.parametrize(
    "body, match",
    [
        ("n: two\nK: 2\nd: 1\ncorrect: 0 1\n", "line 3"),
        ("n: 1 2\nK: 2\nd: 1\ncorrect: 0\n", "one integer"),
        ("n: 2\nK: 2\nd: 1\ncorrect: 0 x\n", "line 6"),
        ("n: 0\nK: 2\nd: 1\ncorrect:\n", "at least one prompt"),
        ("n: 1\nK: 1\nd: 1\ncorrect: 0\nfeatures 0:\n1.0\n", "at least 2 outputs"),
        ("n: 1\nK: 2\nd: 1\ncorrect: 2\nfeatures 0:\n1.0\n0.0\n", "correct indices"),
        ("n: 1\nK: 2\nd: 1\ncorrect: 0\nfeatures 0:\nnan\n0.0\n", "non-finite"),
        ("n: 1\nK: 2\nd: 1\ncorrect: 0\nfeatures 0:\n1.0\n\u00e9\n", "not ASCII"),
        ("n: 1\nK: 2\nd: 1\ncorrect: 1\nfeatures 0:\n0.0\n0.0\n", "every feature matrix is zero"),
        ("n: 1\nK: 2\nd: 1\ncorrect: 1\nfeatures 0:\n1e300\n0.0\n", "x_max\\*\\*2 is not a finite"),
        ("n: 1\nK: 2\nd: 1\ncorrect: 1\nfeatures 0:\n1e-300\n0.0\n", "x_max\\*\\*2 is not a finite"),
    ],
)
def test_every_malformed_instance_is_a_format_error(tmp_path, body, match):
    path = tmp_path / "bad.txt"
    path.write_text("rlvrlab-instance\nformat: 1\n" + body, encoding="utf-8")
    with pytest.raises(InstanceFormatError, match=match):
        load_instance(path)
