import json

import numpy as np
import pytest

from obsavg import jsonio
from obsavg.errors import FormatError
from obsavg.linops import random_hermitian
from obsavg.povm import OutcomeDistribution, Povm, random_povm
from obsavg.symspace import CopySpace


def test_format_float_lossless():
    for x in [0.25, 1 / 3, -1e-300, 2.0, 0.1 + 0.2]:
        assert float(jsonio.format_float(x)) == x
    with pytest.raises(FormatError):
        jsonio.format_float(float("nan"))
    with pytest.raises(FormatError):
        jsonio.format_float(float("inf"))


def test_dumps_is_valid_json_with_fixed_order():
    obj = {"b": 1, "a": [1.5, True, None, "x"], "c": {"z": 0.1}}
    text = jsonio.dumps(obj)
    assert json.loads(text) == obj
    # insertion order preserved, not sorted
    assert text.index('"b"') < text.index('"a"') < text.index('"c"')


def test_dumps_handles_numpy_scalars_and_arrays():
    text = jsonio.dumps({"v": np.float64(0.5), "n": np.int64(3),
                         "arr": np.array([1.0, 2.0]), "flag": np.bool_(True)})
    assert json.loads(text) == {"v": 0.5, "n": 3, "arr": [1.0, 2.0], "flag": True}


def test_dumps_rejects_unknown_types():
    with pytest.raises(FormatError):
        jsonio.dumps({"x": object()})


def test_operator_round_trip(tmp_path):
    rng = np.random.default_rng(80)
    m = random_hermitian(3, rng)
    path = tmp_path / "op.json"
    jsonio.write_text(jsonio.dump_operator(m), path)
    loaded = jsonio.load_operator(path)
    assert np.array_equal(loaded, m)


def test_operator_json_defaults_imaginary_to_zero():
    data = {"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]], "im": None}
    m = jsonio.matrix_from_json(data)
    assert np.array_equal(m, np.diag([1.0, -1.0]).astype(complex))


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"dim": 0, "re": []},
        {"dim": 2},
        {"dim": 2, "re": [[1.0, 0.0]]},
        {"dim": 2, "re": [[1.0, 0.0], [0.0, "x"]]},
        {"dim": True, "re": [[1.0]]},
        {"dim": 1, "re": [[float("inf")]]},
        {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [float("nan"), 0.0]]},
    ],
)
def test_operator_json_rejects_malformed(data):
    with pytest.raises(FormatError):
        jsonio.matrix_from_json(data)


def test_load_operator_missing_or_invalid_file(tmp_path):
    with pytest.raises(FormatError):
        jsonio.load_operator(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        jsonio.load_operator(bad)


def test_povm_round_trip(tmp_path):
    rng = np.random.default_rng(81)
    space = CopySpace(2, 2)
    p = random_povm(space, 3, rng)
    path = tmp_path / "povm.json"
    jsonio.write_text(jsonio.dump_povm(p), path)
    loaded = jsonio.load_povm(path, space=space)
    assert np.array_equal(loaded.values, p.values)
    assert np.array_equal(loaded.elements, p.elements)
    assert loaded.space == space


def test_povm_json_rejects_malformed():
    with pytest.raises(FormatError):
        jsonio.povm_from_json({"dim": 2, "outcomes": []})
    with pytest.raises(FormatError):
        jsonio.povm_from_json({"dim": 2, "outcomes": [{"value": "x", "re": [[1.0]]}]})


def test_serialization_is_byte_stable():
    rng = np.random.default_rng(82)
    p = random_povm(CopySpace(2, 1), 2, rng)
    assert jsonio.dump_povm(p) == jsonio.dump_povm(p)


def test_distribution_csv_layout():
    dist = OutcomeDistribution([1.0, -1.0], [0.25, 0.75])
    text = jsonio.distribution_csv(dist)
    lines = text.split("\n")
    assert lines[0] == "value,probability"
    assert lines[1] == "1,0.25"
    assert lines[2] == "-1,0.75"


def test_rows_csv_layout():
    rows = [
        {"trial": 0, "converged": True, "gap": 0.5, "note": None},
        {"trial": 1, "converged": False, "gap": None, "note": None},
    ]
    text = jsonio.rows_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "trial,converged,gap,note"
    assert lines[1] == "0,true,0.5,"
    assert lines[2] == "1,false,,"
    with pytest.raises(FormatError):
        jsonio.rows_csv([])
