"""JSON matrix file format used by the CLI.

A matrix is stored as ``{"dim": n, "rows": [[[re, im], ...], ...]}`` in
row-major order, with n restricted to 2 or 4.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import MatrixFormatError
from .matops import SUPPORTED_DIMS, _is_integer, as_matrix


def matrix_to_obj(m) -> dict:
    m = as_matrix(m, "matrix")  # only what obj_to_matrix reads back: 2x2 or 4x4
    return {
        "dim": int(m.shape[0]),
        "rows": [[[float(x.real), float(x.imag)] for x in row] for row in m],
    }


def obj_to_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "rows" not in obj:
        raise MatrixFormatError("matrix object must have 'dim' and 'rows' keys")
    dim = obj["dim"]
    if not _is_integer(dim) or dim not in SUPPORTED_DIMS:
        raise MatrixFormatError(f"matrix dim must be 2 or 4, got {dim!r}")
    shape = (dim, dim, 2)  # dim rows of dim [re, im] pairs
    try:
        pairs = np.array(obj["rows"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MatrixFormatError(f"matrix rows must be numbers of shape {shape}: {exc}") from exc
    if pairs.shape != shape:
        raise MatrixFormatError(f"matrix rows must have shape {shape}, got {pairs.shape}")
    # float() also reads "1" and true; a JSON number is an int, a float or
    # null, and the entries of a numpy array are np.str_ (a str) or np.bool_
    entries = chain.from_iterable(chain.from_iterable(obj["rows"]))
    if any(isinstance(x, (str, bool, np.bool_)) for x in entries):
        raise MatrixFormatError(
            f"matrix rows must be numbers of shape {shape}, not strings or booleans"
        )
    return pairs.view(complex)[..., 0]


def load_matrix(path) -> np.ndarray:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a missing file, or one that is no UTF-8 text
        raise MatrixFormatError(f"cannot read matrix file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"matrix file {path} is not valid JSON: {exc}") from exc
    return obj_to_matrix(obj)
