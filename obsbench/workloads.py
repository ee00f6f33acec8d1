"""The four job lists and the input files they read.

A job is one `obsavg` CLI invocation plus the independent check of its
output. Every input is drawn from the run seed and written with the standard
library's json in the documented operator format, so no part of obsavg is
involved in making the inputs. Small jobs (cheap calls whose time is mostly
fixed per-call cost) are spread evenly between the large jobs.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)
BUILTINS = {"pauli-x": PAULI_X, "pauli-z": PAULI_Z, "spin1-z": SPIN1_Z}

SHOTS = 20000
# smallest type probability p_min**n must stay above 10**-UNDERFLOW_DECADES
UNDERFLOW_DECADES = 250
# generic observables need type means this far apart (relative to |A|)
TYPE_GAP = 1e-6
SMALL_JOBS_PER_ROUND = 100
# three random states per size: a collective round of about 20 s, and 30
# large-n jobs for its small jobs to sit between
STATES_PER_SIZE = 3
ADVERSARY_GRID = 8
# large-n copy ladders, paired: d=2 (hundreds) and d=3 (tens)
LARGE_N_D2 = (200, 240, 280, 320, 360)
LARGE_N_D3 = (30, 36, 42, 48, 54)
# the CLI default --tol 1e-9 equals Povm.validate's completeness tolerance, and
# on some seeds a converged trial then fails validation (see CHANGES.md)
ADVERSARY_TOL = 1e-10
ADVERSARY_TRIALS_PER_CALL = 2


@dataclass
class Job:
    """One CLI call: its argv, its size, and the check of its output files."""

    label: str
    argv: list[str]
    d: int
    n: int
    small: bool
    check: Callable[[], list[str]] = field(repr=False)
    outputs: list[Path] = field(default_factory=list, repr=False)
    trial_csv: Path | None = None


class Inputs:
    """Writes seeded input files into one work directory."""

    def __init__(self, workdir: Path, rng: np.random.Generator):
        self.dir = workdir
        self.rng = rng
        self.count = 0

    def path(self, stem: str) -> Path:
        self.count += 1
        return self.dir / f"{stem}-{self.count:03d}.json"

    def operator(self, m: np.ndarray, stem: str) -> str:
        path = self.path(stem)
        payload = {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def complex_matrix(self, dim: int) -> np.ndarray:
        return self.rng.standard_normal((dim, dim)) + 1j * self.rng.standard_normal((dim, dim))

    def state(self, d: int) -> np.ndarray:
        """Full-rank Wishart density matrix."""
        g = self.complex_matrix(d)
        w = g @ g.conj().T
        return w / np.trace(w).real

    def safe_state(self, a: np.ndarray, n: int) -> np.ndarray:
        """A state whose rarest spectral outcome of a keeps p_min**n representable."""
        while True:
            rho = self.state(a.shape[0])
            if underflow_safe(a, rho, n):
                return rho

    def x_balanced_qubit(self) -> np.ndarray:
        """Qubit state with |<X>| <= 0.1, so both X outcomes have p >= 0.45."""
        x = self.rng.uniform(-0.1, 0.1)
        radius = math.sqrt(1.0 - x * x) * math.sqrt(self.rng.uniform())
        phi = self.rng.uniform(0.0, 2.0 * math.pi)
        y, z = radius * math.cos(phi), radius * math.sin(phi)
        return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])

    def generic_observable(self, d: int, n_max: int) -> np.ndarray:
        """Random Hermitian whose type means stay apart up to n_max copies.

        Then every type class is its own outcome: M = C(n + d - 1, d - 1).
        """
        counts = reference.type_counts(n_max, d)
        while True:
            lam = np.sort(self.rng.uniform(-1.5, 1.5, d))
            means = np.sort(counts @ lam / n_max)
            if np.diff(means).min() >= TYPE_GAP * max(1.0, np.abs(lam).max()):
                q, _ = np.linalg.qr(self.complex_matrix(d))
                a = (q * lam) @ q.conj().T
                return (a + a.conj().T) / 2.0


def underflow_safe(a: np.ndarray, rho: np.ndarray, n: int) -> bool:
    _, p = reference.spectral_probabilities(a, rho)
    return p.min() > 0.0 and n * -math.log10(p.min()) <= UNDERFLOW_DECADES


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class JobList:
    """Accumulates the large and small jobs of one workload."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.large: list[Job] = []
        self.small: list[Job] = []

    def next_seed(self) -> int:
        return int(self.inputs.rng.integers(0, 2**31 - 1))

    def out_path(self, suffix: str) -> Path:
        self.inputs.count += 1
        return self.inputs.dir / f"out-{self.inputs.count:03d}.{suffix}"

    def estimate(self, command: str, obs_name: str, a: np.ndarray, rho: np.ndarray,
                 n: int, small: bool = False, obs_file: str | None = None) -> Job:
        """A `canonical` or `simulate` job with sampling and a distribution CSV."""
        state = self.inputs.operator(rho, "state")
        out, csv = self.out_path("json"), self.out_path("csv")
        argv = [command, "--observable", obs_file or obs_name, "--state", state,
                "--copies", str(n), "--shots", str(SHOTS), "--seed", str(self.next_seed()),
                "--out", str(out), "--csv", str(csv)]

        def check() -> list[str]:
            report = _read_json(out)
            problems = reference.check_estimate(report, a, rho, n, SHOTS,
                                                collective=command == "canonical")
            return problems + reference.check_distribution_csv(
                csv.read_text(encoding="utf-8"), report)

        return self._add(Job(f"{command} {obs_name} n={n}", argv, a.shape[0], n, small,
                             check, [out, csv]))

    def twirl(self, d: int, n: int, small: bool = False) -> Job:
        x = self.inputs.complex_matrix(d**n)
        src = self.inputs.operator(x, "operator")
        out = self.out_path("json")
        argv = ["twirl", "--input", src, "--local-dim", str(d), "--out", str(out)]
        probe_seed = self.next_seed()

        def check() -> list[str]:
            data = _read_json(out)
            y = np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)
            return reference.check_twirl(x, y, d, n, probe_seed)

        return self._add(Job(f"twirl d={d} n={n}", argv, d, n, small, check, [out]))

    def lemma(self, d: int, n: int) -> Job:
        probes = math.comb(n + d * d - 1, n) + 6
        seed = self.next_seed()
        out = self.out_path("json")
        argv = ["lemma-demo", "--dim", str(d), "--copies", str(n), "--seed", str(seed),
                "--probes", str(probes), "--out", str(out)]
        return self._add(Job(f"lemma-demo d={d} n={n}", argv, d, n, False,
                             lambda: reference.check_lemma(_read_json(out), d, n, probes, seed),
                             [out]))

    def adversary(self, obs_name: str, n: int, trials: int, small: bool = False) -> Job:
        out, csv = self.out_path("json"), self.out_path("csv")
        argv = ["adversary", "--observable", obs_name, "--copies", str(n),
                "--trials", str(trials), "--grid", str(ADVERSARY_GRID),
                "--seed", str(self.next_seed()), "--tol", str(ADVERSARY_TOL),
                "--out", str(out), "--csv", str(csv)]

        def check() -> list[str]:
            return reference.check_adversary(_read_json(out), csv.read_text(encoding="utf-8"),
                                             trials, ADVERSARY_GRID, ADVERSARY_TOL)

        return self._add(Job(f"adversary {obs_name} n={n} x{trials}", argv,
                             BUILTINS[obs_name].shape[0], n, small, check, [out, csv], csv))

    def _add(self, job: Job) -> Job:
        (self.small if job.small else self.large).append(job)
        return job

    def interleaved(self) -> list[Job]:
        """Large jobs in order, with the small jobs spread evenly between them."""
        jobs: list[Job] = []
        n_large, n_small = len(self.large), len(self.small)
        placed = 0
        for i, job in enumerate(self.large):
            due = round((i + 1) * n_small / n_large)
            jobs.extend(self.small[placed:due])
            placed = due
            jobs.append(job)
        return jobs


def build_collective(b: JobList) -> Callable[[], Job]:
    """The dense collective route: canonical and simulate on one (d, n) ladder."""
    a3 = b.inputs.generic_observable(3, 6)
    a3_file = b.inputs.operator(a3, "observable")
    for n in (6, 8, 9, 10):
        for _ in range(STATES_PER_SIZE):
            rho = b.inputs.state(2)
            b.estimate("canonical", "pauli-x", PAULI_X, rho, n)
            b.estimate("simulate", "pauli-x", PAULI_X, rho, n)
    for n in (3, 4, 5, 6):
        for _ in range(STATES_PER_SIZE):
            rho = b.inputs.state(3)
            b.estimate("canonical", "generic-d3", a3, rho, n, obs_file=a3_file)
            b.estimate("simulate", "generic-d3", a3, rho, n, obs_file=a3_file)
    return lambda: b.estimate("canonical", "pauli-x", PAULI_X, b.inputs.state(2), 2, small=True)


def build_large_n(b: JobList) -> Callable[[], Job]:
    """The repeated route at hundreds (d=2) and tens (d=3) of copies.

    Three states per size, d=2 and d=3 jobs alternating: 30 large jobs of
    0.2-1.7 s each, so the small jobs sit at 30 points spread over the round.
    """
    a3 = b.inputs.generic_observable(3, LARGE_N_D3[-1])
    a3_file = b.inputs.operator(a3, "observable")
    for n2, n3 in zip(LARGE_N_D2, LARGE_N_D3):
        for _ in range(STATES_PER_SIZE):
            b.estimate("simulate", "pauli-x", PAULI_X, b.inputs.x_balanced_qubit(), n2)
            b.estimate("simulate", "generic-d3", a3, b.inputs.safe_state(a3, n3), n3,
                       obs_file=a3_file)
    return lambda: b.estimate("simulate", "pauli-x", PAULI_X, b.inputs.state(2), 20, small=True)


def build_symmetry(b: JobList) -> Callable[[], Job]:
    """Twirls of random operators and the reconstruction identities."""
    for d, n in ((2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5)):
        for _ in range(3):
            b.twirl(d, n)
    for d, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 3)):
        b.lemma(d, n)
    return lambda: b.twirl(2, 3, small=True)


def build_adversary(b: JobList) -> Callable[[], Job]:
    """Random unbiased competitors on an 8-point spanning grid."""
    for obs_name, n, trials in (("pauli-z", 3, 10), ("pauli-z", 4, 10), ("pauli-z", 5, 4),
                                ("pauli-x", 3, 10), ("pauli-x", 4, 8),
                                ("spin1-z", 2, 10), ("spin1-z", 3, 6)):
        # two trials per call, so the small jobs can sit at many points in time
        for _ in range(trials // ADVERSARY_TRIALS_PER_CALL):
            b.adversary(obs_name, n, ADVERSARY_TRIALS_PER_CALL)
    return lambda: b.adversary("pauli-z", 1, 2, small=True)


WORKLOADS = {
    "collective": (1, build_collective),
    "large-n": (2, build_large_n),
    "symmetry": (3, build_symmetry),
    "adversary": (4, build_adversary),
}


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Job], Job]:
    """The round's job list and a separate warm-up job, all inputs written.

    Each workload adds its large jobs and returns the maker of its small job;
    the warm-up is one more small job, kept out of the round.
    """
    salt, add_jobs = WORKLOADS[workload]
    # the modulus keeps negative seeds valid and leaves every seed in [0, 2**64) as is
    job_list = JobList(Inputs(workdir, np.random.default_rng([seed % 2**64, salt])))
    make_small = add_jobs(job_list)
    for _ in range(SMALL_JOBS_PER_ROUND):
        make_small()
    warmup = make_small()
    job_list.small.remove(warmup)
    return job_list.interleaved(), warmup


def repeat_share(jobs: list[Job]) -> float:
    """Share of jobs whose (d, n) already occurred earlier in the list."""
    seen: set[tuple[int, int]] = set()
    repeats = 0
    for job in jobs:
        repeats += (job.d, job.n) in seen
        seen.add((job.d, job.n))
    return repeats / len(jobs)
