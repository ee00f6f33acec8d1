"""Command line interface.

Subcommands cover the library surface: theta/twirl (symmetric-space
operators), verify-povm/error/sample (POVM checks and statistics),
canonical/simulate (the two estimation routes), lemma-demo
(reconstruction identities), adversary (random competing POVM trials).

Exit codes: 0 success, 1 semantic validation failure (with a JSON
diagnostic on stderr), 2 usage or input-format problems.
"""
from __future__ import annotations

import argparse
import functools
import math
import operator
import re
import signal
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .adversary import run_trials
from .errors import DimensionMismatchError, FormatError, ObsavgError
from .estimators import canonical_error, estimate_canonical, simulate_repeated
from .linops import (
    DensityMatrix,
    Observable,
    random_hermitian,
    tensor_power,
    trace_product,
)
from .polarization import (
    coefficient_extract,
    product_grid_expectations,
    random_probe_states,
    reconstruct_from_diagonal,
    reconstruct_from_moments,
    symmetrized_product_sum,
)
from .povm import UNBIASED_TOL, Povm
from .symspace import CopySpace, copy_average, twirl

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
_SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)


def builtin_operator(name: str) -> np.ndarray:
    """Named operator presets: pauli-x/y/z, spin1-z, identity-<d>."""
    table = {
        "pauli-x": _PAULI_X,
        "pauli-y": _PAULI_Y,
        "pauli-z": _PAULI_Z,
        "spin1-z": _SPIN1_Z,
    }
    if name in table:
        return table[name].copy()
    match = re.fullmatch(r"identity-([1-9]\d*)", name)
    if match:
        return np.eye(int(match.group(1)), dtype=complex)
    raise KeyError(name)


def _load_observable(spec: str) -> Observable:
    try:
        return Observable(builtin_operator(spec))
    except KeyError:
        pass
    if Path(spec).exists():
        return Observable(jsonio.load_operator(spec))
    raise FormatError(
        f"unknown observable {spec!r}: not a builtin preset "
        f"(pauli-x/y/z, spin1-z, identity-<d>) and no such file"
    )


def _infer_copies(local_dim: int, total_dim: int, requested: int | None) -> int:
    if requested is not None:
        if local_dim**requested != total_dim:
            raise DimensionMismatchError(
                f"local dim {local_dim} with {requested} copies gives "
                f"{local_dim**requested}, but the composite dim is {total_dim}"
            )
        return requested
    if local_dim == 1:
        if total_dim != 1:
            raise DimensionMismatchError(
                f"composite dim {total_dim} is impossible for local dim 1"
            )
        return 1
    n = round(np.log(total_dim) / np.log(local_dim))
    if n < 1 or local_dim**n != total_dim:
        raise DimensionMismatchError(
            f"composite dim {total_dim} is not a power of local dim {local_dim}"
        )
    return n


def _number(kind: type, relation: str, low: int):
    """argparse type: kind(text), refused unless `value relation low` (">=" or ">") holds."""
    noun = "an integer" if kind is int else "a number"
    holds = operator.ge if relation == ">=" else operator.gt

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}") from None
        if not holds(value, low):
            raise argparse.ArgumentTypeError(f"must be {relation} {low}, got {value}")
        return value

    return parse


_positive_int = _number(int, ">=", 1)
_nonneg_int = _number(int, ">=", 0)
_positive_float = _number(float, ">", 0)


def _grid_spec(text: str):
    """A bare integer means spanning-grid size; a comma list means explicit values."""
    if "," in text:
        try:
            return tuple(float(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a comma-separated number list"
            ) from None
    try:
        size = int(text)
    except ValueError:
        try:
            return (float(text),)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a grid spec") from None
    if size < 2:
        raise argparse.ArgumentTypeError(f"grid size must be >= 2, got {size}")
    return size


def _cmd_theta(opt: dict) -> int:
    obs = _load_observable(opt["observable"])
    space = CopySpace(obs.dim, opt["copies"])
    avg = copy_average(obs.matrix, space)
    jsonio.write_text(jsonio.matrix_to_json(avg), opt["out"])
    return 0


def _cmd_twirl(opt: dict) -> int:
    matrix = jsonio.load_operator(opt["input"])
    local_dim = opt["local_dim"]
    n = _infer_copies(local_dim, matrix.shape[0], opt["copies"])
    space = CopySpace(local_dim, n)
    jsonio.write_text(jsonio.matrix_to_json(twirl(matrix, space)), opt["out"])
    return 0


def _on_copies(raw: Povm, local_dim: int, requested: int | None) -> Povm:
    """raw on CopySpace(local_dim, n), n from --copies or inferred from the dims."""
    n = _infer_copies(local_dim, raw.dim, requested)
    return Povm(raw.values, raw.elements, CopySpace(local_dim, n))


def _cmd_verify_povm(opt: dict) -> int:
    povm = jsonio.load_povm(opt["povm"])
    report = povm.validate().to_dict()
    report = {"n_outcomes": povm.n_outcomes, "dim": povm.dim, **report}
    if opt["observable"] is not None:
        obs = _load_observable(opt["observable"])
        povm = _on_copies(povm, obs.dim, opt["copies"])
        residual = povm.unbiasedness_residual(obs)
        report["n_copies"] = povm.space.n_copies
        report["unbiasedness_residual"] = residual
        report["unbiased"] = residual <= UNBIASED_TOL
    jsonio.write_text(report, opt["out"])
    return 0 if report["ok"] else 1


def _cmd_error(opt: dict) -> int:
    obs = _load_observable(opt["observable"])
    state = DensityMatrix(jsonio.load_operator(opt["state"]))
    povm = _on_copies(jsonio.load_povm(opt["povm"]), obs.dim, opt["copies"])
    povm.require_valid()
    err = povm.estimation_error(obs, state)
    n = povm.space.n_copies
    base = canonical_error(obs, state, n)
    residual = povm.unbiasedness_residual(obs)
    report = {
        "n_copies": n,
        "n_outcomes": povm.n_outcomes,
        "expected_value": obs.expectation(state.matrix),
        "estimation_error": err,
        "canonical_error": base,
        "gap": err - base,
        "unbiasedness_residual": residual,
        "unbiased": residual <= UNBIASED_TOL,
    }
    jsonio.write_text(report, opt["out"])
    return 0


def _cmd_sample(opt: dict) -> int:
    raw = jsonio.load_povm(opt["povm"])
    state = DensityMatrix(jsonio.load_operator(opt["state"]))
    povm = _on_copies(raw, state.dim, opt["copies"])
    povm.require_valid()
    counts = povm.sample(state, opt["shots"], seed=opt["seed"])
    report = {
        "shots": opt["shots"],
        "seed": opt["seed"],
        "values": [float(v) for v in povm.values],
        "counts": [int(c) for c in counts],
    }
    jsonio.write_text(report, opt["out"])
    if opt["csv"] is not None:
        rows = [
            {"value": float(v), "count": int(c),
             "frequency": (c / opt["shots"]) if opt["shots"] else 0.0}
            for v, c in zip(povm.values, counts)
        ]
        jsonio.write_text(jsonio.rows_csv(rows), opt["csv"])
    return 0


def _cmd_estimate(opt: dict) -> int:
    """canonical and simulate: the two estimation routes share one report shape."""
    route = estimate_canonical if opt["command"] == "canonical" else simulate_repeated
    obs = _load_observable(opt["observable"])
    state = DensityMatrix(jsonio.load_operator(opt["state"]))
    report = route(
        obs,
        state,
        opt["copies"],
        shots=opt["shots"],
        seed=opt["seed"],
        merge_tol=opt["merge_tol"],
    )
    jsonio.write_text(report.to_dict(), opt["out"])
    if opt["csv"] is not None and report.distribution is not None:
        jsonio.write_text(jsonio.distribution_csv(report.distribution), opt["csv"])
    return 0


def _cmd_lemma_demo(opt: dict) -> int:
    d, n, seed = opt["dim"], opt["copies"], opt["seed"]
    rng = np.random.default_rng(seed)
    space = CopySpace(d, n)
    dim = space.total_dim
    n_probes = opt["probes"] or math.comb(n + d * d - 1, n) + 6

    target = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    # invariant-operator recovery from moments; first, so too few probes fail early
    invariant_target = copy_average(random_hermitian(d, rng), space)
    probes = random_probe_states(d, n_probes, seed=seed + 1)
    rec = reconstruct_from_moments(
        lambda rho: trace_product(invariant_target, tensor_power(rho.matrix, n)),
        d,
        n,
        probes,
    )
    moment_err = float(np.abs(rec.matrix - invariant_target).max())

    # full-matrix recovery from diagonal product values
    recovered = reconstruct_from_diagonal(
        lambda table: product_grid_expectations(target, table, n), d, n
    )
    diag_err = float(np.abs(recovered - target).max())

    # multilinear coefficient identity on random vectors
    vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n)]
    lhs = coefficient_extract(target, vectors)
    rhs = symmetrized_product_sum(target, vectors)
    coeff_residual = abs(lhs - rhs) / max(1.0, abs(rhs))

    report = {
        "local_dim": d,
        "n_copies": n,
        "seed": seed,
        "n_probes": n_probes,
        "invariant_basis_size": rec.n_basis,
        "diagonal_reconstruction_error": diag_err,
        "moment_reconstruction_error": moment_err,
        "moment_condition_number": rec.condition_number,
        "moment_rank": rec.rank,
        "coefficient_identity_residual": float(coeff_residual),
    }
    jsonio.write_text(report, opt["out"])
    return 0


def _cmd_adversary(opt: dict) -> int:
    obs = _load_observable(opt["observable"])
    space = CopySpace(obs.dim, opt["copies"])
    grid = opt["grid"]
    if isinstance(grid, int):
        grid = np.linspace(obs.lambda_min, obs.lambda_max, grid)
    rows, summary = run_trials(obs, space, grid, opt["trials"], seed=opt["seed"],
                               max_iterations=opt["max_iterations"],
                               convergence_tol=opt["tol"])
    jsonio.write_text(summary, opt["out"])
    if opt["csv"] is not None:
        jsonio.write_text(jsonio.rows_csv(rows), opt["csv"])
    return 0


_HANDLERS = {
    "theta": _cmd_theta,
    "twirl": _cmd_twirl,
    "verify-povm": _cmd_verify_povm,
    "error": _cmd_error,
    "sample": _cmd_sample,
    "canonical": _cmd_estimate,
    "simulate": _cmd_estimate,
    "lemma-demo": _cmd_lemma_demo,
    "adversary": _cmd_adversary,
}


# argparse sizes help and usage text from COLUMNS or the terminal; a fixed width,
# the one it takes under COLUMNS=80, keeps the bytes of usage errors the same everywhere
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main() call."""
    parser = argparse.ArgumentParser(
        prog="obsavg",
        description="Ensemble-average estimation on identical copies",
        formatter_class=_FORMATTER,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text, formatter_class=_FORMATTER)
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        return p

    p = add("theta", "copy-averaged observable as an operator JSON")
    p.add_argument("--observable", required=True)
    p.add_argument("--copies", type=_positive_int, required=True)

    p = add("twirl", "permutation group average of an operator")
    p.add_argument("--input", required=True)
    p.add_argument("--local-dim", dest="local_dim", type=_positive_int, required=True)
    p.add_argument("--copies", type=_positive_int, default=None)

    p = add("verify-povm", "validate a POVM file, optionally check unbiasedness")
    p.add_argument("--povm", required=True)
    p.add_argument("--observable", default=None)
    p.add_argument("--copies", type=_positive_int, default=None)

    p = add("error", "estimation error of a POVM against the closed form")
    p.add_argument("--povm", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--copies", type=_positive_int, default=None)

    p = add("sample", "draw outcome counts from a POVM")
    p.add_argument("--povm", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--shots", type=_nonneg_int, required=True)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--copies", type=_positive_int, default=None)
    p.add_argument("--csv", default=None)

    p = add("canonical", "collective spectral estimation report")
    p.add_argument("--observable", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--copies", type=_positive_int, required=True)
    p.add_argument("--shots", type=_nonneg_int, default=0)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--merge-tol", dest="merge_tol", type=_positive_float, default=None)
    p.add_argument("--csv", default=None)

    p = add("simulate", "Monte Carlo over repeated single-copy measurement")
    p.add_argument("--observable", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--copies", type=_positive_int, required=True)
    p.add_argument("--shots", type=_positive_int, required=True)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--merge-tol", dest="merge_tol", type=_positive_float, default=None)
    p.add_argument("--csv", default=None)

    p = add("lemma-demo", "reconstruction identities on random instances")
    p.add_argument("--dim", type=_positive_int, default=2)
    p.add_argument("--copies", type=_positive_int, default=2)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--probes", type=_positive_int, help="default: invariant basis size + 6")

    p = add("adversary", "random unbiased competitor trials")
    p.add_argument("--observable", required=True)
    p.add_argument("--copies", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--grid", type=_grid_spec, default=8,
                   help="spanning grid size, or explicit comma-separated values")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--max-iterations", dest="max_iterations", type=_positive_int,
                   default=5000)
    p.add_argument("--csv", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _HANDLERS[args.command](vars(args))
    except ObsavgError as err:
        diagnostic = {
            "error": err.code,
            "message": str(err),
            "details": err.details,
        }
        sys.stderr.write(jsonio.dumps(diagnostic) + "\n")
        return 2 if err.code in ("BAD_FORMAT", "BAD_ENV") else 1


def script_main() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the script by SIGPIPE, quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    script_main()
