import json

import numpy as np
import pytest
from helpers import write_matrix

from progchan import MatrixFormatError, haar_unitary, load_matrix, matrix_to_obj, obj_to_matrix


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for dim in (2, 4):
        m = haar_unitary(dim, rng)
        path = tmp_path / f"m{dim}.json"
        write_matrix(m, path)
        np.testing.assert_allclose(load_matrix(path), m, atol=1e-15)


def test_obj_round_trip():
    m = np.array([[1 + 2j, 0], [0.5j, -1]])
    np.testing.assert_allclose(obj_to_matrix(matrix_to_obj(m)), m, atol=1e-15)


def test_missing_keys():
    with pytest.raises(MatrixFormatError):
        obj_to_matrix({"rows": [[1, 2]]})


def test_bad_dim():
    with pytest.raises(MatrixFormatError):
        obj_to_matrix({"dim": 3, "rows": [[[0, 0]] * 3] * 3})


def test_mismatched_rows():
    with pytest.raises(MatrixFormatError):
        obj_to_matrix({"dim": 2, "rows": [[[1, 0], [0, 0]]]})
    with pytest.raises(MatrixFormatError):
        obj_to_matrix({"dim": 2, "rows": [[[1, 0]], [[0, 0]]]})


def test_bad_entry():
    with pytest.raises(MatrixFormatError):
        obj_to_matrix({"dim": 2, "rows": [[[1, 0], "x"], [[0, 0], [1, 0]]]})


def test_unreadable_file(tmp_path):
    with pytest.raises(MatrixFormatError):
        load_matrix(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MatrixFormatError):
        load_matrix(bad)


def test_json_is_stable():
    m = np.array([[0.1 + 0.25j, 0], [0, 1]])
    text = json.dumps(matrix_to_obj(m), sort_keys=True)
    assert text == json.dumps(matrix_to_obj(m.copy()), sort_keys=True)
    assert json.loads(text) == {"dim": 2, "rows": [[[0.1, 0.25], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
