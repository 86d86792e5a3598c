import json
import re

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


I2_ROWS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


def test_bad_dim():
    with pytest.raises(MatrixFormatError):
        obj_to_matrix({"dim": 3, "rows": [[[0, 0]] * 3] * 3})
    for dim in (2.0, 4.0, True, np.True_, "2", None, [2]):
        with pytest.raises(MatrixFormatError, match="dim must be 2 or 4"):
            obj_to_matrix({"dim": dim, "rows": I2_ROWS})


def test_numpy_integer_dim():
    # an integer dim is accepted whatever its integer type
    np.testing.assert_array_equal(obj_to_matrix({"dim": np.int64(2), "rows": I2_ROWS}), np.eye(2))
    i4 = matrix_to_obj(np.eye(4))
    np.testing.assert_array_equal(obj_to_matrix({**i4, "dim": np.int32(4)}), np.eye(4))


def test_mismatched_rows():
    cases = [
        ([[[1, 0], [0, 0]]], "(1, 2, 2)"),
        ([[[1, 0]], [[0, 0]]], "(2, 1, 2)"),
        (None, "()"),
        (7, "()"),
        ([], "(0,)"),
        ([[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]], "(2, 2, 3)"),
        ([[1, 0], [0, 1]], "(2, 2)"),
        ([*I2_ROWS, [[0, 0], [0, 0]]], "(3, 2, 2)"),
    ]
    for rows, got in cases:
        with pytest.raises(MatrixFormatError, match=re.escape(f"shape (2, 2, 2), got {got}")):
            obj_to_matrix({"dim": 2, "rows": rows})


def test_bad_entry():
    cases = [
        [[[1, 0], "x"], [[0, 0], [1, 0]]],
        [[[1, 0], [0, 0]], "ab"],  # a row that is not a list
        [[[1, 0], [0, 0]], 5],
        [[[1, 0], [0, 0]], {"re": 0}],
        [[[1, 0], [0, 0, 0]], [[0, 0], [1, 0]]],  # one three-number pair
        [[[1, 0], [0, [0]]], [[0, 0], [1, 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [10**400, 0]]],  # no float holds a 400-digit integer
        [[[1, 0], [0, 0]], [[0, 0], [1, -(10**400)]]],
        # float() reads numeric strings and booleans, but JSON numbers are neither
        [[["1", 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [1, "-0.0"]]],
        [[[True, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[1, 0], [0, False]], [[0, 0], [1, 0]]],
        [[[True, False], [False, False]], [[False, False], [True, False]]],
        # a numpy array's entries are np.str_ and np.bool_, not str and bool
        np.array([[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]),
        np.array([[[True, False], [False, False]], [[False, False], [True, False]]]),
        "rows",
    ]
    for rows in cases:
        with pytest.raises(MatrixFormatError, match=re.escape("shape (2, 2, 2)")):
            obj_to_matrix({"dim": 2, "rows": rows})


def test_special_values_read_bit_for_bit():
    text = '{"dim": 2, "rows": [[[-0.0, 0.0], [Infinity, -Infinity]], [[NaN, 1e-320], [1, -0.0]]]}'
    m = obj_to_matrix(json.loads(text))
    assert m.shape == (2, 2) and m.dtype == complex and m.flags.c_contiguous
    pairs = [[(-0.0, 0.0), (np.inf, -np.inf)], [(np.nan, 1e-320), (1.0, -0.0)]]
    expected = np.array(pairs).view(complex)[..., 0]
    assert m.tobytes() == expected.tobytes()
    assert np.signbit(m[0, 0].real) and not np.signbit(m[0, 0].imag) and np.signbit(m[1, 1].imag)


def test_unreadable_file(tmp_path):
    with pytest.raises(MatrixFormatError):
        load_matrix(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MatrixFormatError):
        load_matrix(bad)
    # bytes that are no UTF-8 text: a .npy array, a UTF-16 export
    npy = tmp_path / "v.npy"
    np.save(npy, np.eye(4))
    utf16 = tmp_path / "utf16.json"
    utf16.write_text(json.dumps(matrix_to_obj(np.eye(2))), encoding="utf-16")
    for path in (npy, utf16):
        with pytest.raises(MatrixFormatError, match=f"^cannot read matrix file {re.escape(str(path))}: "):
            load_matrix(path)


def test_json_is_stable():
    m = np.array([[0.1 + 0.25j, 0], [0, 1]])
    text = json.dumps(matrix_to_obj(m), sort_keys=True)
    assert text == json.dumps(matrix_to_obj(m.copy()), sort_keys=True)
    assert json.loads(text) == {"dim": 2, "rows": [[[0.1, 0.25], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
