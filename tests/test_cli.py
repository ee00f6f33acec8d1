import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import obsavg
from obsavg import jsonio
from obsavg.cli import build_parser, builtin_operator, main
from obsavg.estimators import canonical_povm
from obsavg.linops import Observable, pure_state, random_density
from obsavg.symspace import CopySpace, lift
from competitors import COMPETITORS

Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture
def write_operator(tmp_path):
    def _write(matrix, name):
        path = tmp_path / name
        jsonio.write_text(jsonio.dump_operator(matrix), path)
        return str(path)

    return _write


@pytest.fixture
def plus_state_file(write_operator):
    return write_operator(pure_state([1.0, 1.0]).matrix, "plus.json")


@pytest.fixture
def canonical_povm_file(tmp_path):
    p = canonical_povm(Z, CopySpace(2, 2))
    path = tmp_path / "canonical.json"
    jsonio.write_text(jsonio.dump_povm(p), path)
    return str(path)


def test_builtin_operator_presets():
    assert np.array_equal(builtin_operator("pauli-z"), Z)
    assert builtin_operator("pauli-y")[0, 1] == -1.0j
    assert np.array_equal(builtin_operator("spin1-z"), np.diag([1.0, 0.0, -1.0]))
    assert builtin_operator("identity-4").shape == (4, 4)
    with pytest.raises(KeyError):
        builtin_operator("hadamard")


def test_theta_subcommand(tmp_path):
    out = tmp_path / "theta.json"
    code = main(["theta", "--observable", "pauli-z", "--copies", "2",
                 "--out", str(out)])
    assert code == 0
    avg = jsonio.load_operator(out)
    assert np.allclose(avg, np.diag([1.0, 0.0, 0.0, -1.0]))


def test_twirl_subcommand(tmp_path, write_operator):
    lifted = lift(Z, 0, CopySpace(2, 2))
    src = write_operator(lifted, "lifted.json")
    out = tmp_path / "twirled.json"
    code = main(["twirl", "--input", src, "--local-dim", "2", "--out", str(out)])
    assert code == 0
    got = jsonio.load_operator(out)
    assert np.allclose(got, np.diag([1.0, 0.0, 0.0, -1.0]))


def test_verify_povm_ok(canonical_povm_file, capsys):
    code = main(["verify-povm", "--povm", canonical_povm_file,
                 "--observable", "pauli-z"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["unbiased"] is True
    assert report["n_copies"] == 2
    assert report["unbiasedness_residual"] <= 1e-12


@pytest.mark.parametrize("make, weight_squares", [c[1:] for c in COMPETITORS],
                         ids=[c[0] for c in COMPETITORS])
def test_verify_povm_and_error_take_unbiased_competitors_off_the_invariant_subspace(
        make, weight_squares, tmp_path, write_operator, capsys):
    p = make()
    path = tmp_path / "competitor.json"
    jsonio.write_text(jsonio.dump_povm(p), path)
    rho = random_density(2, np.random.default_rng(47))
    state = write_operator(rho.matrix, "rho.json")
    variance = Observable(Z).variance(rho)

    assert main(["verify-povm", "--povm", str(path), "--observable", "pauli-z"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unbiased"] is True and report["unbiasedness_residual"] <= 1e-15
    assert main(["error", "--povm", str(path), "--observable", "pauli-z", "--state", state]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unbiased"] is True and report["unbiasedness_residual"] <= 1e-15
    assert report["estimation_error"] == pytest.approx(np.sqrt(weight_squares * variance),
                                                       abs=1e-12)
    assert report["canonical_error"] == pytest.approx(np.sqrt(variance / p.space.n_copies),
                                                      abs=1e-12)
    assert report["gap"] > 0


def test_verify_povm_flags_invalid(tmp_path, capsys):
    data = {
        "dim": 2,
        "outcomes": [{"value": 1.0, "re": [[1.1, 0.0], [0.0, 1.1]], "im": None}],
    }
    path = tmp_path / "bad.json"
    jsonio.write_text(jsonio.dumps(data), path)
    code = main(["verify-povm", "--povm", str(path)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["completeness_residual"] == pytest.approx(0.1)


def test_error_subcommand(canonical_povm_file, plus_state_file, capsys):
    code = main([
        "error",
        "--povm", canonical_povm_file,
        "--observable", "pauli-z",
        "--state", plus_state_file,
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_copies"] == 2
    assert report["canonical_error"] == pytest.approx(np.sqrt(0.5))
    assert report["estimation_error"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert abs(report["gap"]) <= 1e-12
    assert report["unbiased"] is True


def test_sample_subcommand_deterministic(tmp_path, canonical_povm_file,
                                         plus_state_file):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    csv_path = tmp_path / "counts.csv"
    argv = ["sample", "--povm", canonical_povm_file, "--state", plus_state_file,
            "--shots", "1000", "--seed", "7", "--csv", str(csv_path)]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert sum(report["counts"]) == 1000
    assert report["values"] == [-1.0, 0.0, 1.0]
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "value,count,frequency"
    assert len(lines) == 4


def test_canonical_subcommand(tmp_path, plus_state_file, capsys):
    csv_path = tmp_path / "dist.csv"
    code = main([
        "canonical",
        "--observable", "pauli-z",
        "--state", plus_state_file,
        "--copies", "4",
        "--shots", "100",
        "--seed", "3",
        "--csv", str(csv_path),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["closed_form_error"] == pytest.approx(0.5)
    assert report["povm_error"] == pytest.approx(0.5, abs=1e-12)
    assert report["shots"] == 100
    assert len(report["outcome_values"]) == 5
    assert csv_path.read_text().startswith("value,probability\n")


def test_canonical_beyond_the_dimension_cap(plus_state_file, capsys, monkeypatch):
    # 2**13 = 8192 exceeds the default cap, but the outcome law has 14 types
    monkeypatch.delenv("OBSAVG_DIM_CAP", raising=False)
    code = main(["canonical", "--observable", "pauli-z", "--state", plus_state_file,
                 "--copies", "13"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["outcome_values"]) == 14
    assert report["povm_error"] == pytest.approx(13**-0.5, abs=1e-12)


def test_canonical_reports_byte_identical(tmp_path, plus_state_file):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["canonical", "--observable", "pauli-z", "--state", plus_state_file,
            "--copies", "3", "--shots", "500", "--seed", "11"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_subcommand(plus_state_file, capsys):
    code = main([
        "simulate",
        "--observable", "pauli-z",
        "--state", plus_state_file,
        "--copies", "4",
        "--shots", "2000",
        "--seed", "5",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["closed_form_error"] == pytest.approx(0.5)
    assert abs(report["sample_mean"]) < 0.1
    assert report["sample_stddev"] == pytest.approx(0.5, rel=0.15)


def test_lemma_demo_subcommand(capsys):
    code = main(["lemma-demo", "--dim", "2", "--copies", "2", "--seed", "1",
                 "--probes", "12"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["invariant_basis_size"] == 10
    assert report["diagonal_reconstruction_error"] < 1e-8
    assert report["moment_reconstruction_error"] < 1e-8
    assert report["moment_condition_number"] < 1e8
    assert report["coefficient_identity_residual"] < 1e-9


def test_lemma_demo_three_levels_four_copies(capsys, monkeypatch):
    monkeypatch.delenv("OBSAVG_DIM_CAP", raising=False)
    code = main(["lemma-demo", "--dim", "3", "--copies", "4", "--seed", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # C(4 + 9 - 1, 4) invariant basis operators, six probes beyond them
    assert report["invariant_basis_size"] == report["moment_rank"] == 495
    assert report["n_probes"] == 501
    assert report["diagonal_reconstruction_error"] < 1e-8
    assert report["moment_reconstruction_error"] < 1e-8
    assert report["coefficient_identity_residual"] < 1e-9


def test_lemma_demo_default_probes_cover_the_basis(capsys):
    code = main(["lemma-demo", "--dim", "2", "--copies", "3", "--seed", "4"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["invariant_basis_size"] == report["moment_rank"] == 20
    assert report["n_probes"] == 26
    assert report["moment_reconstruction_error"] < 1e-8


def test_lemma_demo_refuses_too_few_probes_before_the_diagonal_route(capsys, monkeypatch):
    def diagonal_route(*args):
        raise AssertionError("the diagonal route ran before the probe count was checked")

    monkeypatch.setattr("obsavg.cli.reconstruct_from_diagonal", diagonal_route)
    code = main(["lemma-demo", "--dim", "2", "--copies", "3", "--probes", "19"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PROBE_RANK"
    assert err["details"] == {"n_basis": 20, "n_probes": 19}


def test_adversary_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "trials.csv"
    code = main([
        "adversary",
        "--observable", "pauli-z",
        "--copies", "2",
        "--trials", "3",
        "--grid=-1,-0.5,0,0.5,1",
        "--seed", "2",
        "--csv", str(csv_path),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 3
    assert summary["converged"] == 3
    assert summary["min_gap"] >= -1e-8
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("trial,seed,converged,iterations")


def test_adversary_spanning_grid_is_its_evenly_spaced_values(tmp_path, capsys):
    outputs = []
    for grid in ["--grid=5", "--grid=-1,-0.5,0,0.5,1"]:
        csv_path = tmp_path / "trials.csv"
        code = main(["adversary", "--observable", "pauli-z", "--copies", "2", "--trials", "2",
                     grid, "--seed", "4", "--csv", str(csv_path)])
        assert code == 0
        outputs.append((capsys.readouterr().out, csv_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])["grid_size"] == 5


def test_adversary_infeasible_grid_exits_1(capsys):
    code = main([
        "adversary",
        "--observable", "pauli-z",
        "--copies", "2",
        "--trials", "2",
        "--grid", "0.0,0.5",
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ADVERSARY_INFEASIBLE"


def test_adversary_default_tol_passes_validation(capsys):
    # the product-basis search once stopped at 1e-9 here and rotated back to a
    # completeness residual of 1.056e-9, which compare refuses
    code = main(["adversary", "--observable", "pauli-x", "--copies", "3",
                 "--trials", "10", "--grid", "8", "--seed", "1081653680",
                 "--tol", "1e-9"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    summary = json.loads(captured.out)
    assert summary["converged"] == 10
    assert summary["max_completeness_residual"] <= 1e-9


def test_adversary_loose_tol_still_passes_validation(capsys):
    # a tol looser than Povm.validate's 1e-9 once returned the first lift
    # within 1e-8 (residual 9.9e-9 here), and compare aborted the batch
    code = main(["adversary", "--observable", "spin1-z", "--copies", "1",
                 "--trials", "1", "--grid", "3", "--seed", "0", "--tol", "1e-8"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    summary = json.loads(captured.out)
    assert summary["converged"] == 1
    assert summary["max_completeness_residual"] <= 1e-9


def test_adversary_runs_qubit_trials_in_spin_blocks(tmp_path, capsys):
    # D = 128: the search runs on four spin blocks of at most 8 rows, then
    # the lifted POVM passes the dense checks of compare
    csv_path = tmp_path / "trials.csv"
    code = main(["adversary", "--observable", "pauli-y", "--copies", "7", "--trials", "2",
                 "--grid", "8", "--seed", "3", "--tol", "1e-10", "--csv", str(csv_path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    summary = json.loads(captured.out)
    assert summary["converged"] == 2
    assert summary["min_gap"] >= -1e-8
    assert summary["max_unbiasedness_residual"] <= 1e-8
    assert summary["max_completeness_residual"] <= 1e-10
    assert summary["min_moment_floor"] >= -1e-9
    assert len(csv_path.read_text().strip().split("\n")) == 3


def test_adversary_runs_qutrit_trials_in_schur_blocks(capsys):
    # D = 81: the search runs on four Schur-Weyl blocks of 15, 15, 6 and 3
    # rows, then the lifted POVM passes the dense checks of compare
    code = main(["adversary", "--observable", "spin1-z", "--copies", "4", "--trials", "2",
                 "--grid", "5", "--seed", "3", "--tol", "1e-10"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    summary = json.loads(captured.out)
    assert summary["converged"] == 2
    assert summary["min_gap"] >= -1e-8
    assert summary["max_unbiasedness_residual"] <= 1e-8
    assert summary["max_completeness_residual"] <= 1e-10
    assert summary["min_moment_floor"] >= -1e-9


def test_adversary_refuses_a_search_beyond_the_memory_cap(capsys, monkeypatch):
    # D = 4096 passes the dimension cap; eight 4096^2 stacks do not fit
    monkeypatch.delenv("OBSAVG_DIM_CAP", raising=False)
    code = main(["adversary", "--observable", "pauli-z", "--copies", "12",
                 "--trials", "1"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DIM_CAP"


def test_adversary_counts_the_block_stacks_against_the_memory_cap(capsys, monkeypatch):
    # D = 3: the lifted stack of 4000 outcomes is half of one 256^2 matrix;
    # the search's three block stacks, each as large, do not fit beside it
    monkeypatch.setenv("OBSAVG_DIM_CAP", "256")
    code = main(["adversary", "--observable", "spin1-z", "--copies", "1",
                 "--trials", "1", "--grid", "4000", "--max-iterations", "1"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DIM_CAP"


def test_parser_is_reused_across_calls(plus_state_file, capsys):
    calls = [
        ["theta", "--observable", "pauli-z", "--copies", "0"],
        ["canonical", "--observable", "pauli-z", "--state", plus_state_file,
         "--copies", "3", "--shots", "50", "--seed", "4"],
        ["theta", "--observable", "pauli-x", "--copies", "2"],
    ]
    in_sequence = []
    for argv in calls:
        in_sequence.append((main(argv), capsys.readouterr()))
    assert build_parser() is build_parser()
    for argv, seen in zip(calls, in_sequence):
        build_parser.cache_clear()
        assert (main(argv), capsys.readouterr()) == seen
    assert [code for code, _ in in_sequence] == [2, 0, 0]


def test_usage_errors_exit_2(tmp_path, plus_state_file):
    # missing subcommand
    assert main([]) == 2
    # invalid flag value
    assert main(["theta", "--observable", "pauli-z", "--copies", "0"]) == 2
    # unknown observable spec
    assert main(["theta", "--observable", "no-such-thing", "--copies", "2"]) == 2
    # missing state file
    assert main(["canonical", "--observable", "pauli-z",
                 "--state", str(tmp_path / "missing.json"), "--copies", "2"]) == 2
    # malformed operator file
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["canonical", "--observable", "pauli-z", "--state", str(bad),
                 "--copies", "2"]) == 2
    # simulate requires shots >= 1
    assert main(["simulate", "--observable", "pauli-z", "--state",
                 plus_state_file, "--copies", "2", "--shots", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["adversary", "--observable", "pauli-z", "--copies", "2", "--trials", "1", "--grid=1"],
    ["twirl", "--input", "op.json"],
    ["no-such-command"],
], ids=["subcommand-value", "subcommand-missing", "command"])
def test_usage_errors_do_not_depend_on_the_terminal_width(argv, capsys, monkeypatch):
    seen = []
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(argv) == 2
        seen.append(capsys.readouterr())
    assert seen[0] == seen[1]
    # the usage, every line but the error's, wraps as at COLUMNS=80, not on one line
    *usage, _ = seen[0].err.splitlines()
    assert len(usage) > 1


def test_semantic_errors_exit_1(write_operator, plus_state_file, capsys):
    # non-Hermitian observable file
    bad_op = write_operator(np.array([[0.0, 1.0], [0.0, 0.0]]), "nonherm.json")
    code = main(["canonical", "--observable", bad_op, "--state", plus_state_file,
                 "--copies", "2"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BAD_OPERATOR"
    # dimension cap exceeded
    code = main(["theta", "--observable", "pauli-z", "--copies", "13"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DIM_CAP"


def test_negative_seeds_are_usage_errors(canonical_povm_file, plus_state_file, capsys):
    # including the calls that draw nothing (--shots 0), which used to accept them
    calls = [
        ["lemma-demo", "--seed", "-1"],
        ["adversary", "--observable", "pauli-z", "--copies", "1", "--trials", "1",
         "--seed", "-3"],
        ["canonical", "--observable", "pauli-z", "--state", plus_state_file,
         "--copies", "2", "--shots", "0", "--seed", "-1"],
        ["simulate", "--observable", "pauli-z", "--state", plus_state_file,
         "--copies", "2", "--shots", "5", "--seed", "-1"],
        ["sample", "--povm", canonical_povm_file, "--state", plus_state_file,
         "--shots", "0", "--seed", "-1"],
    ]
    for argv in calls:
        assert main(argv) == 2
        assert "argument --seed: must be >= 0, got -" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"dim": 1, "re": [[1%s]]}' % ("0" * 400),  # beyond float range
    '{"dim": 1, "re": [[1%s]]}' % ("0" * 5000),  # beyond the int-to-text digit limit
    "[" * 100_000 + "]" * 100_000,  # beyond the decoder's recursion limit
    '{"dim": 1, "re": [[1e400]]}',  # a float literal beyond range parses to inf
    '{"dim": 2, "re": [[1, 0], [0, NaN]]}',
    '{"dim": 1, "re": [[0]], "im": [[-Infinity]]}',
], ids=["float-range", "digit-limit", "deep-nesting", "float-literal-range", "nan-token",
        "infinity-token"])
def test_unreadable_numbers_and_nesting_are_format_errors(tmp_path, capsys, text):
    path = tmp_path / "op.json"
    path.write_text(text, encoding="utf-8")
    assert main(["twirl", "--input", str(path), "--local-dim", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BAD_FORMAT"


@pytest.mark.parametrize("argv", [
    ["twirl", "--input", "{}", "--local-dim", "10"],
    ["simulate", "--observable", "pauli-z", "--state", "{}", "--copies", "2", "--shots", "1"],
    ["canonical", "--observable", "pauli-z", "--state", "{}", "--copies", "2"],
], ids=["twirl", "simulate", "canonical"])
def test_operator_header_naming_a_huge_matrix_is_a_format_error(tmp_path, capsys, argv):
    # 25 bytes that name a 149 GiB matrix: refused before anything is allocated
    path = tmp_path / "op.json"
    path.write_text('{"dim": 100000, "re": []}', encoding="utf-8")
    assert main([arg.format(path) for arg in argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BAD_FORMAT"
    assert err["message"] == f"{path}: 're' must be a 100000x100000 number grid"


def test_povm_value_beyond_float_range_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "povm.json"
    path.write_text('{"dim": 1, "outcomes": [{"value": 1%s, "re": [[1]]}]}' % ("0" * 400),
                    encoding="utf-8")
    assert main(["verify-povm", "--povm", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BAD_FORMAT"
    assert "outcome 0 'value' is too large for a float" in err["message"]


@pytest.mark.parametrize("value", ["1e400", "NaN", "-Infinity"])
def test_non_finite_povm_value_is_a_format_error(tmp_path, capsys, value):
    path = tmp_path / "povm.json"
    path.write_text('{"dim": 1, "outcomes": [{"value": %s, "re": [[1]]}]}' % value,
                    encoding="utf-8")
    assert main(["verify-povm", "--povm", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BAD_FORMAT"
    assert "outcome 0 'value' is not a finite number" in err["message"]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_script_by_sigpipe():
    # 1.6 MB of JSON, far beyond a pipe buffer, so the write meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(obsavg.__file__).parents[1]))
    argv = [sys.executable, "-m", "obsavg.cli", "theta", "--observable", "pauli-z",
            "--copies", "9"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert stderr == b""
