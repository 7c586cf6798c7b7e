"""The benchmark's four workloads, built from a seed.

Each workload is a fixed list of operations.  The seed chooses parameters
only: angles, states, observables, config seeds, random one-qubit unitaries
and H-box split points.  The sizes and families in each list never depend on
the seed, because the size mix, not the parameters, sets the cost.

An operation is run by ``Op.run``, which returns the program's output, and
checked by ``Op.check``, which returns ``None`` or the reason the output is
wrong.  Checks run outside the timed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import qcut.cli
import qcut.cuts
import qcut.zx
from qcut import gates
from qcut.linalg import Operator

#: reconstruction tolerance the verify check demands
VERIFY_ATOL = 1e-9

#: tolerance on gamma against the family's closed form
GAMMA_ATOL = 1e-9

#: slack on the single-shot variance bound
VARIANCE_SLACK = 1e-9

#: a sampled estimate must lie within this many standard errors of exact
SAMPLE_SIGMAS = 5.0

#: fixed tail percentile per workload: the highest of p50/p75/p90/p95/p99
#: that keeps at least 10 operations above it in every 30 s run at the
#: commit that defined the benchmark.  It is fixed so that every commit reports the same
#: percentile; a run length-dependent choice jumps between operation sizes.
TAIL_PERCENTILE = {"verify": 90.0, "sample": 90.0, "sample_wide": 75.0, "zx": 90.0}


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _angle(rng) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def _unitary(rng) -> np.ndarray:
    """Haar-random single-qubit unitary (QR of a complex Gaussian matrix)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _pure_state(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _rz_gamma(theta: float) -> float:
    return 1 + 2 * abs(math.sin(theta))


# ---------------------------------------------------------------------------
# verify: builder call + Decomposition.verify()
# ---------------------------------------------------------------------------


def _verify_op(label: str, build: Callable[[], object], gamma: float) -> Op:
    def run():
        return build().verify()

    def check(report):
        if not report["max_abs_deviation"] <= VERIFY_ATOL:
            return f"max_abs_deviation {report['max_abs_deviation']!r} > {VERIFY_ATOL}"
        if not abs(report["one_norm"] - gamma) <= GAMMA_ATOL:
            return f"gamma {report['one_norm']!r} != closed form {gamma!r}"
        return None

    return Op(label, run, check)


def _verify_ops(rng, tiny: bool) -> list:
    cuts = qcut.cuts
    sizes = (2,) if tiny else (2, 3, 4, 5)
    ops = [_verify_op("wire_ncc", lambda: cuts.wire_cut_ncc(), 4.0)]
    for basis in "XYZ":
        ops.append(_verify_op(f"wire_cc[{basis}]",
                              lambda b=basis: cuts.wire_cut_cc(b), 3.0))
    theta_a, theta_b = _angle(rng), _angle(rng)
    ops.append(_verify_op("rzz_a", lambda: cuts.rzz_decomposition_a(theta_a), 3.0))
    ops.append(_verify_op("rzz_b", lambda: cuts.rzz_decomposition_b(theta_b),
                          _rz_gamma(theta_b)))
    for n in sizes:
        for m in range(1, n):
            ops.append(_verify_op(f"mcz[{m},{n - m}]",
                                  lambda m=m, n=n: cuts.mcz_decomposition(m, n - m), 3.0))
    for n in sizes:
        for m in range(1, n):
            theta = _angle(rng)
            ops.append(_verify_op(
                f"multi_z[{m},{n - m}]",
                lambda m=m, n=n, t=theta: cuts.multi_z_rotation_decomposition(m, n - m, t),
                _rz_gamma(theta),
            ))
    for n in sizes:
        k = n - 1
        seq = [((t,), Operator(_unitary(rng))) for t in range(k)]
        ops.append(_verify_op(
            f"controlled_sequence[{k}]",
            lambda s=seq, k=k: cuts.controlled_sequence_decomposition(s, k), 3.0,
        ))
    return ops


# ---------------------------------------------------------------------------
# sample / sample_wide: `qcut sample` run in-process
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"report holds the non-finite value {name}")


def _matrix_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _sample_op(label, selector, n, gamma, shots, rng, workdir: Path) -> Op:
    config = {
        "decomposition": selector,
        "initial_state": [_matrix_json(_pure_state(rng)) for _ in range(n)],
        "observable": "".join(rng.choice(list("XYZ"), size=n)),
        "shots": shots,
        "seed": int(rng.integers(0, 2**31)),
        "n_batches": 10,
    }
    config_path = workdir / f"{label}.json"
    report_path = workdir / f"{label}.report.json"
    config_path.write_text(json.dumps(config))
    argv = ["sample", "--config", str(config_path), "--output", str(report_path)]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = qcut.cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}: {text.strip()}"
        try:
            report = json.loads(report_path.read_text(), parse_constant=_reject_constant)
        finally:
            report_path.unlink(missing_ok=True)
        est, err, exact = report["estimate"], report["standard_error"], report["exact_value"]
        if not abs(est - exact) <= SAMPLE_SIGMAS * err:
            return f"estimate {est!r} is more than {SAMPLE_SIGMAS} sigma from {exact!r}"
        # |y| <= gamma on every shot, so the ddof=1 sample variance is at most
        # shots/(shots-1) * (gamma^2 - estimate^2); plain gamma^2 is not a
        # bound on it when the estimate is within 1/sqrt(shots) of zero
        bound = shots / (shots - 1) * (gamma**2 - est**2)
        if not report["single_shot_variance"] <= bound + VARIANCE_SLACK:
            return (f"single_shot_variance {report['single_shot_variance']!r} "
                    f"> {bound!r}, the bound from |y| <= gamma")
        if sum(report["per_term_shots"]) != shots or report["shots"] != shots:
            return f"per_term_shots sum to {sum(report['per_term_shots'])}, not {shots}"
        if not abs(report["gamma"] - gamma) <= GAMMA_ATOL:
            return f"gamma {report['gamma']!r} != closed form {gamma!r}"
        return None

    return Op(label, run, check)


def _sequence_selector(rng, n_targets: int) -> dict:
    ops = [{"targets": [t], "gate": "matrix", "matrix": _matrix_json(_unitary(rng))}
           for t in range(n_targets)]
    return {"name": "controlled_sequence", "n_targets": n_targets, "controlled_ops": ops}


def _mcz_splits(sizes):
    return [(m, n - m) for n in sizes for m in range(1, n)]


def _sample_ops(rng, tiny: bool, workdir: Path) -> list:
    shots = 1_000 if tiny else 1_000_000
    specs = [("wire_ncc", {"name": "wire_ncc"}, 1, 4.0),
             ("wire_cc", {"name": "wire_cc", "cc_basis": "Y"}, 1, 3.0)]
    for m, mp in _mcz_splits((2,) if tiny else (2, 3)):
        specs.append((f"mcz[{m},{mp}]", {"name": "mcz", "m": m, "m_prime": mp}, m + mp, 3.0))
    theta_a, theta_b = _angle(rng), _angle(rng)
    specs.append(("rzz_a", {"name": "rzz_a", "theta": theta_a}, 2, 3.0))
    specs.append(("rzz_b", {"name": "rzz_b", "theta": theta_b}, 2, _rz_gamma(theta_b)))
    specs.append(("controlled_sequence[1]", _sequence_selector(rng, 1), 2, 3.0))
    return [_sample_op(label, sel, n, gamma, shots, rng, workdir)
            for label, sel, n, gamma in specs]


def _sample_wide_ops(rng, tiny: bool, workdir: Path) -> list:
    shots = 1_000 if tiny else 10_000
    sizes = (2,) if tiny else (4, 5)
    specs = [(f"mcz[{m},{mp}]", {"name": "mcz", "m": m, "m_prime": mp}, m + mp)
             for m, mp in _mcz_splits(sizes)]
    for n in sizes:
        specs.append((f"controlled_sequence[{n - 1}]", _sequence_selector(rng, n - 1), n))
    return [_sample_op(label, sel, n, 3.0, shots, rng, workdir)
            for label, sel, n in specs]


# ---------------------------------------------------------------------------
# zx: diagram build + exact contraction
# ---------------------------------------------------------------------------


def diagram_and_gate(kind: str, n: int, theta: float):
    """The diagram an operation contracts and the gate matrix it must equal.

    Traced as ``zx.diagram_build``: the gate constructor counts there.
    """
    if kind == "mcp":
        return qcut.zx.mcp_diagram(n, theta), gates.mcp(n, theta).mat
    return qcut.zx.mcz_diagram(n), gates.mcz(n).mat


def _zx_contract_op(kind: str, n: int, theta: float) -> Op:
    def run():
        diagram, gate = diagram_and_gate(kind, n, theta)
        return float(np.max(np.abs(qcut.zx.contract(diagram) - gate)))

    def check(deviation):
        if not deviation <= qcut.zx.RULE_ATOL:
            return f"contraction deviates from the gate by {deviation!r}"
        return None

    return Op(f"{kind}[{n}]", run, check)


def _zx_split_op(n: int, m: int) -> Op:
    def run():
        return qcut.zx.verify_rule(qcut.zx.mcz_diagram(n),
                                   qcut.zx.split_mcz_three_hboxes(n, m))

    def check(report):
        if not (report["equal"] and report["max_abs_deviation"] <= qcut.zx.RULE_ATOL):
            return f"split deviates from MCZ by {report['max_abs_deviation']!r}"
        return None

    return Op(f"mcz_split[{n},{m}]", run, check)


def _zx_ops(rng, tiny: bool) -> list:
    ops = []
    for n in ((3,) if tiny else (9, 10, 11)):
        ops.append(_zx_contract_op("mcz", n, math.pi))
        ops.append(_zx_contract_op("mcp", n, _angle(rng)))
        ops.append(_zx_split_op(n, int(rng.integers(1, n))))
    return ops


def make_ops(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list:
    """The workload's operation list for ``seed``; ``tiny`` shrinks every size
    for the self-test.  Sample configs are written under ``workdir``."""
    rng = np.random.default_rng(seed)
    if workload == "verify":
        return _verify_ops(rng, tiny)
    if workload == "sample":
        return _sample_ops(rng, tiny, workdir)
    if workload == "sample_wide":
        return _sample_wide_ops(rng, tiny, workdir)
    if workload == "zx":
        return _zx_ops(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")
