"""Reference computations the benchmark checks the package against.

Nothing here calls into the package's solver, UC or analytics code: the
enumerator packs prefixes into base-d integers and tests forbidden tuples
one by one, the expected-node sum is an exact integer computation, and UC
assignments are checked with numpy against the raw forbidden tuples.
Fixed-seed fingerprints pin the package's random streams and output bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from gbcsp import generator, harness, uc
from gbcsp.model import Params, dumps_instance
from gbcsp.rng import SeedSpec

FINGERPRINTS_FILE = Path(__file__).with_name("fingerprints.json")
FINGERPRINT_SEED = 1


class Checks:
    """Failed output checks; fingerprint comparisons count as operations,
    and a mismatch as a failed one."""

    def __init__(self):
        self.failures: list[str] = []
        self.compared = 0
        self.mismatched = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    def fingerprint(self, name: str, digest: str, reference: dict) -> None:
        self.compared += 1
        if reference.get(name) != digest:
            self.mismatched += 1
            print(f"fingerprint {name}: {digest} != reference {reference.get(name)}", file=sys.stderr)


# --- independent enumerator -------------------------------------------------


def enumerate_levels(inst) -> tuple[tuple[int, ...], int, int]:
    """(level counts c_0..c_n, node count, solution count) of a strict instance.

    A depth-i prefix is the integer sum_v value_v * d**(i-1-v); a constraint
    is tested once, at the depth of its last scope variable.
    """
    params = inst.params
    n, d = params.n, params.d
    if not params.strict or n * math.log2(d) > 62:
        raise ValueError("reference enumerator handles strict instances with d**n < 2**62")
    completes_at: list[list] = [[] for _ in range(n)]
    for c in inst.constraints:
        completes_at[max(c.scope)].append(c)
    codes = np.zeros(1, dtype=np.int64)
    counts = [1]
    for i in range(n):
        codes = (codes[:, None] * d + np.arange(d, dtype=np.int64)).ravel()
        for c in completes_at[i]:
            values = [(codes // d ** (i - v)) % d for v in c.scope]
            bad = np.zeros(codes.shape[0], dtype=bool)
            for tup in c.incompatible:
                hit = values[0] == tup[0]
                for col, a in zip(values[1:], tup[1:]):
                    hit &= col == a
                bad |= hit
            codes = codes[~bad]
        counts.append(int(codes.shape[0]))
    nodes = 1 + d * sum(counts[:-1])
    return tuple(counts), nodes, counts[-1]


# --- exact expected node count ----------------------------------------------


def exact_log_expected_nodes(params: Params) -> float:
    """ln(1 + d * sum_i d**i * g_i**t) with every term an exact integer.

    g_i = (D - q * i(i-1)...(i-k+1)) / D with D = d**k * n(n-1)...(n-k+1),
    so the sum is an integer over D**t.
    """
    n, d, k, t, q = params.n, params.d, params.k, params.t, params.q
    big_d = d**k * math.perm(n, k)
    total = big_d**t + d * sum(d**i * (big_d - q * math.perm(i, k)) ** t for i in range(n))
    return math.log(total) - t * math.log(big_d)


# --- UC assignments -----------------------------------------------------------


def violated_constraints(inst, assignment) -> int:
    """Number of constraints whose scope values form one of their forbidden tuples."""
    scopes = np.array([c.scope for c in inst.constraints], dtype=np.int64)
    forbidden = np.array([sorted(c.incompatible) for c in inst.constraints], dtype=np.int64)
    values = np.asarray(assignment, dtype=np.int64)[scopes]
    return int((values[:, None, :] == forbidden).all(axis=2).any(axis=1).sum())


# --- fixed-seed fingerprints --------------------------------------------------


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _sweep_csv(n, d, k, q, t_grid, trials, measures) -> str:
    config = harness.ExperimentConfig(
        n=n, d=d, k=k, q=q, t_grid=t_grid, trials=trials,
        master_seed=FINGERPRINT_SEED, measures=measures,
    )
    return _sha(harness.format_csv(harness.run_sweep(config)))


def _instances(n, d, k, q, t_grid, count) -> str:
    docs = [
        dumps_instance(generator.sample_instance(
            Params(n=n, d=d, k=k, t=t, q=q), SeedSpec(FINGERPRINT_SEED, j), label=f"instance/t{t}"))
        for t in t_grid for j in range(count)
    ]
    return _sha("".join(docs))


def _uc_outcomes(params: Params, count: int) -> str:
    lines = []
    for j in range(count):
        spec = SeedSpec(FINGERPRINT_SEED, j)
        outcome = uc.run_uc(generator.sample_instance(params, spec), spec)
        lines.append(f"{outcome.tag} {outcome.assignment}\n")
    return _sha("".join(lines))


FINGERPRINTS = {
    "sweep_small.csv": lambda: _sweep_csv(10, 3, 2, 2, (5, 10, 15, 20), 50, ("nodes", "sat", "uc")),
    "sweep_small.instances": lambda: _instances(10, 3, 2, 2, (5, 10, 15, 20), 4),
    "sweep_deep.csv": lambda: _sweep_csv(30, 2, 3, 1, (90, 180), 3, ("nodes", "sat")),
    "sweep_deep.instances": lambda: _instances(30, 2, 3, 1, (90, 180), 2),
    "uc_large.instance": lambda: _sha(dumps_instance(generator.sample_instance(
        Params(n=16000, d=2, k=3, t=32000, q=1), SeedSpec(FINGERPRINT_SEED, 0)))),
    "uc_large.outcomes": lambda: _uc_outcomes(Params(n=2000, d=2, k=3, t=4000, q=1), 4),
}


def check_fingerprints(workload: str, checks: Checks) -> None:
    reference = json.loads(FINGERPRINTS_FILE.read_text(encoding="utf-8"))
    for name, compute in FINGERPRINTS.items():
        if name.split(".")[0] == workload:
            checks.fingerprint(name, compute(), reference)


def regenerate_fingerprints() -> None:
    digests = {name: compute() for name, compute in FINGERPRINTS.items()}
    FINGERPRINTS_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
