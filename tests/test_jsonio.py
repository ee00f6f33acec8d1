import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from json_oracle import reference_dump_operator, reference_dump_povm, reference_dumps

from obsavg import cli, jsonio
from obsavg.errors import DimensionCapError, FormatError
from obsavg.estimators import canonical_povm
from obsavg.linops import random_hermitian
from obsavg.povm import OutcomeDistribution, Povm, random_povm
from obsavg.symspace import CopySpace, twirl


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


@pytest.mark.parametrize("im", [None, [[0.0, -0.0], [-0.0, 0.0]], [[-0.0, 1.5], [-0.0, -0.0]]],
                         ids=["im-null", "im-signed-zeros", "im-mixed"])
def test_operator_load_dump_keeps_signed_zeros(tmp_path, im):
    data = {"dim": 2, "re": [[-0.0, 0.0], [-0.0, -2.5]], "im": im}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    expected = dict(data, im=im or [[0.0, 0.0], [0.0, 0.0]])
    text = jsonio.dump_operator(jsonio.load_operator(path))
    assert text == jsonio.dumps(expected)
    assert text.startswith('{"dim": 2, "re": [[-0, 0], [-0, -2.5]], "im": ')


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
    raw = jsonio.load_povm(path)
    assert raw.space is None
    loaded = Povm(raw.values, raw.elements, space)
    assert loaded.elements is raw.elements  # frozen as read, so kept without a copy
    assert np.array_equal(loaded.values, p.values)
    assert np.array_equal(loaded.elements, p.elements)
    assert loaded.space == space


def test_povm_from_json_holds_one_element_stack():
    # canonical pauli-z at n = 7: D = 128, M = 8, one stack of 2.1 MB
    p = canonical_povm(np.diag([1.0, -1.0]), CopySpace(2, 7))
    data = json.loads(jsonio.dump_povm(p))
    tracemalloc.start()
    try:
        loaded = jsonio.povm_from_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.elements, p.elements)
    assert peak <= 1.1 * p.elements.nbytes


def test_povm_stack_meets_the_memory_rule_before_it_is_allocated(monkeypatch):
    # 100 empty outcomes of dim 4096 name a 25 GiB stack; asked of numpy, it
    # would end the CLI with a MemoryError traceback
    monkeypatch.delenv("OBSAVG_DIM_CAP", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError):
            jsonio.povm_from_json({"dim": 4096, "outcomes": [{}] * 100})
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    monkeypatch.setenv("OBSAVG_DIM_CAP", "4")  # one 4 x 4 complex matrix
    eye = {"value": 1.0, "re": np.eye(4).tolist()}
    assert jsonio.povm_from_json({"dim": 4, "outcomes": [eye]}).n_outcomes == 1
    with pytest.raises(DimensionCapError):
        jsonio.povm_from_json({"dim": 4, "outcomes": [eye, eye]})


def test_operator_meets_the_row_count_and_memory_rule_before_it_is_allocated(monkeypatch):
    # {"dim": 100000, "re": []} names a 149 GiB matrix; asked of numpy, it
    # would end the CLI with a MemoryError traceback
    monkeypatch.delenv("OBSAVG_DIM_CAP", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            jsonio.matrix_from_json({"dim": 100000, "re": []})
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert str(err.value) == "operator: 're' must be a 100000x100000 number grid"
    monkeypatch.setenv("OBSAVG_DIM_CAP", "4")  # one 4 x 4 complex matrix
    assert jsonio.matrix_from_json({"dim": 4, "re": np.eye(4).tolist()}).shape == (4, 4)
    with pytest.raises(DimensionCapError):
        jsonio.matrix_from_json({"dim": 5, "re": [[]] * 5})


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


# floats whose text is easy to get wrong: a signed zero, the smallest
# subnormal and normal, the largest magnitude, and whole numbers ("3", "1e+16")
LIST_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 3.0, 1e16]


def _per_item_list(items) -> str:
    """The JSON text of a flat list, format_float on each float: the oracle of the one-format path."""
    parts = []
    for v in items:
        if isinstance(v, (bool, np.bool_)):
            parts.append("true" if v else "false")
        elif isinstance(v, (int, np.integer)):
            parts.append(str(int(v)))
        else:
            parts.append(jsonio.format_float(v))
    return "[" + ", ".join(parts) + "]"


def _per_row_csv(values, probabilities) -> str:
    """The distribution CSV, format_float on each cell: the oracle of the one-format path."""
    rows = [f"{jsonio.format_float(v)},{jsonio.format_float(p)}"
            for v, p in zip(values, probabilities)]
    return "\n".join(["value,probability"] + rows)


@pytest.mark.parametrize("items", [
    [],
    LIST_FLOATS,
    [-x for x in LIST_FLOATS] * 3,
    np.random.default_rng(83).standard_normal(500).tolist(),
    LIST_FLOATS + [7],  # ints, bools and numpy scalars take the per-item path
    [True] + LIST_FLOATS,
    LIST_FLOATS + [np.float64(0.1)],
    [np.float64(x) for x in LIST_FLOATS],
], ids=["empty", "edges", "negated", "normals", "with-int", "with-bool", "with-numpy",
        "numpy"])
def test_float_list_text_matches_the_per_item_path(items):
    assert jsonio.dumps(items) == _per_item_list(items)
    assert jsonio.dumps({"v": items, "w": 1}) == '{"v": ' + _per_item_list(items) + ', "w": 1}'


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [0, 4, 7])
def test_non_finite_float_in_a_list_raises_the_per_item_message(bad, at):
    items = list(LIST_FLOATS)
    items.insert(at, bad)
    with pytest.raises(FormatError) as err:
        jsonio.dumps({"v": items})
    assert str(err.value) == f"cannot serialize non-finite float {bad!r}"


def test_distribution_csv_matches_the_per_row_path():
    rng = np.random.default_rng(84)
    probs = rng.random(len(LIST_FLOATS))
    dists = [OutcomeDistribution(LIST_FLOATS, probs / probs.sum()),
             OutcomeDistribution(rng.standard_normal(300), np.full(300, 1 / 300)),
             OutcomeDistribution([0.0], [1.0])]
    for dist in dists:
        assert jsonio.distribution_csv(dist) == _per_row_csv(dist.values, dist.probabilities)


@pytest.mark.parametrize("values,probabilities,first", [
    ([0.5, float("nan")], [0.5, 0.5], float("nan")),
    ([0.5, float("inf")], [float("-inf"), 0.5], float("-inf")),  # rows are read value first
    ([0.5, 1.0], [0.5, float("inf")], float("inf")),
])
def test_distribution_csv_refuses_non_finite_cells(values, probabilities, first):
    # OutcomeDistribution refuses these itself; distribution_csv checks on its own
    dist = SimpleNamespace(values=np.array(values), probabilities=np.array(probabilities))
    with pytest.raises(FormatError) as err:
        jsonio.distribution_csv(dist)
    assert str(err.value) == f"cannot serialize non-finite float {first!r}"


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


# signed zeros, the smallest subnormal, the largest magnitudes, and whole
# numbers, which print without a point ("3")
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -7.0, 2.0**53, 0.1]
LAYOUTS = ["complex", "real", "imaginary", "transposed", "strided"]


def _grid_pair(dim, pool, seed):
    """Two (dim, dim) float grids mixing the pool, the edge floats and wide normals."""
    rng = np.random.default_rng(seed)
    choices = np.array(EDGE_FLOATS + pool)
    def draw():
        wide = rng.standard_normal((dim, dim)) * 10.0 ** rng.integers(-300, 300, (dim, dim))
        return np.where(rng.random((dim, dim)) < 0.5, rng.choice(choices, (dim, dim)), wide)
    return draw(), draw()


def _laid_out(re, im, layout):
    """A complex matrix with exactly these parts, in the given memory layout."""
    dim = re.shape[0]
    if layout == "real":
        return re.copy()
    if layout == "imaginary":
        re = np.zeros_like(re)
    m = np.empty((dim, dim), dtype=np.complex128)
    m.real, m.imag = re, im  # keeps the signs of zeros, unlike re + 1j * im
    if layout == "transposed":
        return np.asfortranarray(m.T).T  # same values, column-major memory
    if layout == "strided":
        big = np.zeros((2 * dim, 3 * dim), dtype=np.complex128)
        big[::2, ::3] = m
        return big[::2, ::3]
    return m


def _mismatch(text, reference):
    """None when the texts match, else both texts around their first difference.

    Short, so a failing example does not make pytest diff two long lines."""
    if text == reference:
        return None
    k = next((k for k, (a, b) in enumerate(zip(text, reference)) if a != b),
             min(len(text), len(reference)))
    return text[max(k - 30, 0):k + 30], reference[max(k - 30, 0):k + 30]


grid_cases = dict(
    dim=st.integers(1, 40),
    pool=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(LAYOUTS),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**grid_cases)
def test_dump_operator_matches_the_per_element_reference(dim, pool, seed, layout):
    m = _laid_out(*_grid_pair(dim, pool, seed), layout)
    text = jsonio.dump_operator(m)
    assert _mismatch(text, reference_dump_operator(m)) is None
    assert np.array_equal(jsonio.matrix_from_json(json.loads(text)), m)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**grid_cases, outcomes=st.integers(1, 3))
def test_dump_povm_matches_the_per_element_reference(dim, pool, seed, layout, outcomes):
    elements = [_laid_out(*_grid_pair(dim, pool, seed + k), layout) for k in range(outcomes)]
    values = [EDGE_FLOATS[k] for k in range(outcomes)]
    text = jsonio.dump_povm(Povm(values, np.stack(elements)))
    assert _mismatch(text, reference_dump_povm(values, elements)) is None


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
       part=st.sampled_from(["re", "im"]), layout=st.sampled_from(LAYOUTS[:1] + LAYOUTS[3:]))
def test_non_finite_entries_still_raise(dim, seed, bad, part, layout):
    re, im = _grid_pair(dim, [], seed)
    rng = np.random.default_rng(seed)
    (re if part == "re" else im)[rng.integers(dim), rng.integers(dim)] = bad
    m = _laid_out(re, im, layout)
    with pytest.raises(FormatError) as new:
        jsonio.dump_operator(m)
    with pytest.raises(FormatError) as ref:
        reference_dump_operator(m)
    assert str(new.value) == str(ref.value) == f"cannot serialize non-finite float {bad!r}"


# how many distinct entries a pooled grid has: one, a few, at most the share of
# entries that takes the distinct-value path, one more than that, or all
POOL_SIZES = ["one", "few", "at-share", "above-share", "all"]


def _pooled_grid(dim, size, seed):
    """A (dim, dim) grid that holds each value of a pool at least once, in random places.

    The pool is the edge floats (0.0 and -0.0 first) and then wide normals, so a
    permutation-invariant operator's repeats are mimicked at every pool size."""
    entries = dim * dim
    at_share = max(1, int(jsonio._DISTINCT_SHARE * entries))
    k = {"one": 1, "few": min(3, entries), "at-share": at_share,
         "above-share": min(at_share + 1, entries), "all": entries}[size]
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k)
    pool = np.concatenate([EDGE_FLOATS, wide])[:k]
    return pool[rng.permutation(np.resize(np.arange(k), entries))].reshape(dim, dim)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 24), size=st.sampled_from(POOL_SIZES),
       seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(LAYOUTS),
       block=st.sampled_from([None, 1, 5, 64]))
@example(dim=1, size="one", seed=0, layout="complex", block=None)
@example(dim=1, size="all", seed=1, layout="strided", block=None)
def test_pooled_grids_match_the_per_element_reference(dim, size, seed, layout, block):
    m = _laid_out(_pooled_grid(dim, size, seed), _pooled_grid(dim, size, seed + 1), layout)
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:  # rows in blocks of block // dim, at least one
            patch.setattr(jsonio, "_BLOCK_ENTRIES", block)
        assert _mismatch(jsonio.dump_operator(m), reference_dump_operator(m)) is None
        assert _mismatch(jsonio.dumps(m.real), reference_dumps(m.real.tolist())) is None


def test_dump_povm_of_pooled_grids_matches_the_per_element_reference():
    elements = [_laid_out(_pooled_grid(7, size, k), _pooled_grid(7, size, k + 10), "complex")
                for k, size in enumerate(POOL_SIZES)]
    values = EDGE_FLOATS[:len(elements)]
    text = jsonio.dump_povm(Povm(values, np.stack(elements)))
    assert _mismatch(text, reference_dump_povm(values, elements)) is None


@pytest.mark.parametrize("shape, text", [((2, 0), "[[], []]"), ((0, 3), "[]")])
def test_grid_without_entries(shape, text):
    assert jsonio.dumps(np.zeros(shape)) == text


# (JSON text of one entry, the message after the "[i][j]" location)
BAD_ENTRIES = [
    ("true", "is not a number"),
    ("false", "is not a number"),
    ('"0.5"', "is not a number"),
    ("null", "is not a number"),
    ("[0.5]", "is not a number"),
    ("{}", "is not a number"),
    ("1" + "0" * 400, "is too large for a float"),
    ("1e400", "is not a finite number"),
    ("-1e400", "is not a finite number"),
    ("NaN", "is not a finite number"),
    ("Infinity", "is not a finite number"),
    ("-Infinity", "is not a finite number"),
]


def _grid_text(dim, bad=None, at=(0, 0)):
    rows = [["%d.5" % (i * dim + j) for j in range(dim)] for i in range(dim)]
    if bad is not None:
        rows[at[0]][at[1]] = bad
    return "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]"


@pytest.mark.parametrize("key", ["re", "im"])
@pytest.mark.parametrize("entry,message", BAD_ENTRIES, ids=[e for e, _ in BAD_ENTRIES])
def test_operator_parser_names_the_bad_entry(entry, message, key):
    grids = {"re": _grid_text(3), "im": _grid_text(3)}
    grids[key] = _grid_text(3, entry, at=(2, 1))
    data = json.loads(f'{{"dim": 3, "re": {grids["re"]}, "im": {grids["im"]}}}')
    with pytest.raises(FormatError) as err:
        jsonio.matrix_from_json(data)
    assert str(err.value) == f"operator: '{key}'[2][1] {message}"


@pytest.mark.parametrize("entry,message", BAD_ENTRIES, ids=[e for e, _ in BAD_ENTRIES])
def test_povm_parser_names_the_bad_entry(entry, message):
    good = f'{{"value": 1, "re": {_grid_text(2)}, "im": null}}'
    bad = f'{{"value": -1, "re": {_grid_text(2)}, "im": {_grid_text(2, entry, at=(1, 0))}}}'
    data = json.loads(f'{{"dim": 2, "outcomes": [{good}, {bad}]}}')
    with pytest.raises(FormatError) as err:
        jsonio.povm_from_json(data)
    assert str(err.value) == f"povm: outcome 1: 'im'[1][0] {message}"


@pytest.mark.parametrize("grid,message", [
    ("[[1, 2, 3], [4, 5], [7, 8, 9]]", "'re' row 1 must have 3 entries"),
    ("[[1, 2, 3], [4, 5, 6, 0], [7, 8, 9]]", "'re' row 1 must have 3 entries"),
    ("[[1, 2, 3], [4, 5, 6], 7]", "'re' row 2 must have 3 entries"),
    ("[[1, 2, 3], [4, 5, 6]]", "'re' must be a 3x3 number grid"),
    ("[[[1, 2, 3], [4, 5, 6], [7, 8, 9]]]", "'re' must be a 3x3 number grid"),
    ('"[[1]]"', "'re' must be a 3x3 number grid"),
])
def test_operator_parser_names_the_bad_row(grid, message):
    with pytest.raises(FormatError) as err:
        jsonio.matrix_from_json(json.loads(f'{{"dim": 3, "re": {grid}}}'))
    assert str(err.value) == f"operator: {message}"


def test_parser_names_a_bad_type_before_a_non_finite_number():
    # the type of every entry is checked before any number's range
    data = json.loads('{"dim": 2, "re": [[NaN, 1e400], [0, true]]}')
    with pytest.raises(FormatError) as err:
        jsonio.matrix_from_json(data)
    assert str(err.value) == "operator: 're'[1][1] is not a number"


def test_parser_reads_whole_numbers_and_big_integers_as_floats():
    big = 10**300 + 1
    data = json.loads(f'{{"dim": 2, "re": [[1, -0.0], [{big}, 5e-324]], "im": [[0, 2], [-2, 0]]}}')
    m = jsonio.matrix_from_json(data)
    assert m.real.tolist() == [[1.0, 0.0], [float(big), 5e-324]]
    assert m.imag.tolist() == [[0.0, 2.0], [-2.0, 0.0]]


def test_write_text_adds_one_newline(tmp_path, capsys):
    path = tmp_path / "out.json"
    jsonio.write_text('{"a": 1}', path)
    assert path.read_bytes() == b'{"a": 1}\n'
    jsonio.write_text('{"a": 1}')
    assert capsys.readouterr().out == '{"a": 1}\n'


def test_write_text_writes_an_object_as_its_dumps_text(tmp_path, capsys):
    report = {"a": 1, "re": np.array([[0.5, -0.0], [-0.0, 0.5]]), "ok": True}
    text = '{"a": 1, "re": [[0.5, -0], [-0, 0.5]], "ok": true}'
    jsonio.write_text(report, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_bytes() == text.encode() + b"\n"
    jsonio.write_text(report)
    assert capsys.readouterr().out == text + "\n"


def _report_with_a_nan():
    return {"dim": 2, "re": np.array([[0.0, 1.0], [np.nan, 0.0]]), "im": [0.5, float("nan")]}


@pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["new-file", "existing-file"])
def test_write_text_refuses_a_nan_before_it_opens_the_file(tmp_path, existing):
    path = tmp_path / "out.json"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(FormatError, match="non-finite float nan"):
        jsonio.write_text(_report_with_a_nan(), path)
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing


def test_write_text_refuses_a_nan_before_it_prints(capsys):
    with pytest.raises(FormatError, match="non-finite float nan"):
        jsonio.write_text(_report_with_a_nan())
    assert capsys.readouterr().out == ""


def test_twirl_output_step_holds_its_text_about_once(tmp_path, monkeypatch):
    # at OBSAVG_DIM_CAP=256, d=2 and n=8 make D the cap; writing the twirled
    # operator peaked at 5.66 D x D matrices when its row strings were joined
    monkeypatch.setenv("OBSAVG_DIM_CAP", "256")
    space = CopySpace(2, 8)
    dim = space.total_dim
    rng = np.random.default_rng(87)
    m = twirl(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), space)
    path = tmp_path / "out.json"
    tracemalloc.start()
    try:
        cli._emit(jsonio.matrix_to_json(m), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = 16 * dim * dim
    assert path.read_text(encoding="utf-8") == reference_dump_operator(m) + "\n"
    assert peak < path.stat().st_size + 0.5 * matrix, (peak / matrix, path.stat().st_size / matrix)
