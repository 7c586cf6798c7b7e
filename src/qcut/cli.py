"""Command-line front end: ``qcut verify|sample|norms|zx-check``.

Exit codes: 0 success, 1 check failure, 2 usage/config error.  All numeric
output is printed with 12 significant digits; JSON reports are emitted with
sorted keys so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import reduce

import numpy as np

from . import cuts, gates, sampling, zx
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, Operator, PauliString, QcutError
from .linalg import MAX_DENSE_ENTRIES, SizeCapError, check_integer, check_unitary, max_abs_diff
from .sampling import MAX_SHOTS
from .zx import parse_angle


def _fmt(x) -> str:
    return f"{float(x):.12g}"


#: the largest register size a request may name: on more qubits not even a
#: state vector (2^n entries) fits under the dense-size cap
MAX_QUBITS = MAX_DENSE_ENTRIES.bit_length() - 1


class ConfigError(QcutError):
    """Invalid experiment configuration (reported with the offending field)."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

#: controlled-op gate -> (its operator if it takes no angle or matrix, the
#: fields it reads besides ``gate``); a missing ``theta`` is 0
_GATES = {
    "x": (Operator(PAULI_X), ("targets",)),
    "y": (Operator(PAULI_Y), ("targets",)),
    "z": (Operator(PAULI_Z), ("targets",)),
    "h": (gates.hadamard(), ("targets",)),
    "s": (Operator.diagonal([1.0, 1j]), ("targets",)),
    "rz": (None, ("targets", "theta")),
    "phase": (None, ("targets", "theta")),
    "matrix": (None, ("targets", "matrix")),
}


def _require_fields(obj, where: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = [f for f in required if f not in obj]
    if missing:
        raise ConfigError(f"{where}: missing fields {missing}")


def _check_int(value, where: str, lo: int, hi=None) -> int:
    """:func:`~qcut.linalg.check_integer` of a config value, refused as a usage error."""
    try:
        return check_integer(value, f"{where}:", lo, hi)
    except QcutError as exc:
        raise ConfigError(str(exc)) from None


def _read_text(path) -> str:
    """The UTF-8 text of an input file; one that cannot be read is a usage
    error naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read ({exc})") from None


def _write_text(path, text: str):
    """Write ``text`` to an output file as given; one that cannot be written is
    a usage error naming the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write ({exc})") from None


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _parse_theta(value, where: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{where}: cannot parse angle {value!r}")
    try:
        theta = parse_angle(value) if isinstance(value, str) else float(value)
    except (QcutError, TypeError, ValueError, ArithmeticError):
        raise ConfigError(f"{where}: cannot parse angle {value!r}") from None
    if not math.isfinite(theta):
        raise ConfigError(f"{where}: angle must be finite, got {value!r}")
    return theta


def _entry(obj, where: str, key: str, table: dict, optional):
    """The ``table`` entry ``obj[key]`` names: a pair whose second item lists
    the fields it reads besides ``key``.  ``obj`` must be an object holding
    those fields and no other; the ones in ``optional`` may be left out."""
    name = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(name, str) or name not in table:
        _require_fields(obj, where, [key], {f for _, fields in table.values() for f in fields})
        raise ConfigError(f"{where}: unknown {key} {name!r}")
    _, fields = table[name]
    required = [f for f in fields if f not in optional]
    _require_fields(obj, where, [key, *required], [f for f in fields if f in optional])
    return table[name]


def _parse_controlled_op(entry, where: str, n_targets: int):
    op, _ = _entry(entry, where, "gate", _GATES, ("theta",))
    if not isinstance(entry["targets"], list):
        raise ConfigError(f"{where}.targets: must be a list of target indices")
    targets = tuple(_check_int(t, f"{where}.targets", 0, n_targets - 1) for t in entry["targets"])
    gate = entry["gate"]
    if gate == "matrix":
        op = _parse_matrix(entry["matrix"], where)
        try:
            check_unitary(op.mat, "matrix")
        except QcutError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    elif op is None:
        theta = _parse_theta(entry.get("theta", 0), f"{where}.theta")
        op = gates.rz(theta) if gate == "rz" else gates.mcp(1, theta)
    if op.dim != 2 ** len(targets):
        raise ConfigError(f"{where}: gate {gate!r} does not match {len(targets)} target qubits")
    return targets, op


def _parse_controlled_ops(value, where: str, parsed: dict) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: must be a list")
    n_targets = parsed["n_targets"]
    return [_parse_controlled_op(e, f"{where}[{k}]", n_targets) for k, e in enumerate(value)]


def _parse_matrix(data, where: str) -> Operator:
    """A square matrix of finite numbers or ``[re, im]`` pairs of them; a
    Boolean or a string is not a number."""
    def number(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def cell(v):
        if number(v):
            return complex(v)
        if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(number, v)):
            return complex(float(v[0]), float(v[1]))
        # not a ConfigError: the handler below adds ``where`` once
        raise QcutError("matrix entries must be numbers or [re, im]")

    try:
        return Operator([[cell(v) for v in row] for row in data])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: malformed matrix") from None
    except QcutError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_size(value, where: str, _) -> int:
    return _check_int(value, where, 1, MAX_QUBITS)


def _parse_cc_basis(value, where: str, _) -> str:
    if value not in ("X", "Y", "Z"):
        raise ConfigError(f"{where}: must be X, Y or Z, got {value!r}")
    return value


#: decomposition field -> parser(value, where, the fields parsed before it).
#: Fields are parsed in this order, so ``n_targets`` bounds the targets of
#: ``controlled_ops``.
_FIELDS = {
    "m": _parse_size,
    "m_prime": _parse_size,
    "n_targets": _parse_size,
    "theta": lambda value, where, _: _parse_theta(value, where),
    "cc_basis": _parse_cc_basis,
    "controlled_ops": _parse_controlled_ops,
}

#: the decomposition fields a config may leave out; the builder's own
#: default stands in for one left out
_OPTIONAL = ("cc_basis",)

#: decomposition name -> (its builder's name on :mod:`qcut.cuts`, the fields
#: the builder takes in call order).  The builder is looked up when called.
_FAMILIES = {
    "wire_ncc": ("wire_cut_ncc", ()),
    "wire_cc": ("wire_cut_cc", ("cc_basis",)),
    "mcz": ("mcz_decomposition", ("m", "m_prime")),
    "rzz_a": ("rzz_decomposition_a", ("theta",)),
    "rzz_b": ("rzz_decomposition_b", ("theta",)),
    "multi_z": ("multi_z_rotation_decomposition", ("m", "m_prime", "theta")),
    "controlled_sequence": ("controlled_sequence_decomposition", ("controlled_ops", "n_targets")),
}


def build_decomposition(selector: dict) -> cuts.Decomposition:
    """Build the decomposition a config's ``decomposition`` object names from
    exactly the fields its family takes, each read by its one parser."""
    builder, fields = _entry(selector, "decomposition", "name", _FAMILIES, _OPTIONAL)
    parsed = {}
    for field, parse in _FIELDS.items():
        if field in selector:
            parsed[field] = parse(selector[field], f"decomposition.{field}", parsed)
    try:
        return getattr(cuts, builder)(*(parsed[f] for f in fields if f in parsed))
    except QcutError as exc:
        raise ConfigError(f"decomposition: {exc}") from None


def _blocks(seq, part):
    """Consecutive slices of ``seq`` holding ``part[0]``, ``part[1]``, ... items."""
    pos = 0
    for size in part:
        yield seq[pos : pos + size]
        pos += size


def _parse_states(spec, part) -> list:
    """Register states for ``"zeros"``, ``"plus"``, one bit per qubit or one
    single-qubit density matrix per qubit."""
    n = sum(part)
    if spec == "plus":
        return [Operator(np.full((2**s, 2**s), 1.0 / 2**s, dtype=complex)) for s in part]
    if isinstance(spec, list):
        if len(spec) != n:
            raise ConfigError(
                f"initial_state: need one single-qubit density matrix per qubit ({n})")
        mats = [_parse_matrix(m, f"initial_state[{k}]").mat for k, m in enumerate(spec)]
        return [Operator(reduce(np.kron, block)) for block in _blocks(mats, part)]
    if not isinstance(spec, str):
        raise ConfigError("initial_state: expected a string or a list of matrices")
    bits = "0" * n if spec == "zeros" else spec
    if not bits or set(bits) - {"0", "1"}:
        raise ConfigError(f"initial_state: expected 'zeros', 'plus' or a bitstring, got {spec!r}")
    if len(bits) != n:
        raise ConfigError(f"initial_state: bitstring length {len(bits)} != {n} qubits")
    return [gates.basis_state(block) for block in _blocks(bits, part)]


def build_experiment(config: dict, seed=None) -> sampling.ExperimentSpec:
    _require_fields(config, "config", ["decomposition", "initial_state", "observable", "shots"],
                    ["seed", "output", "batch_csv", "n_batches"])
    for field in ("output", "batch_csv"):
        if not isinstance(config.get(field, ""), str):
            raise ConfigError(f"{field}: must be a path string, got {config[field]!r}")
    deco = build_decomposition(config["decomposition"])
    part = deco.partition
    n = sum(part)
    states = _parse_states(config["initial_state"], part)

    obs_spec = config["observable"]
    if not isinstance(obs_spec, str) or len(obs_spec) != n:
        raise ConfigError(f"observable: expected a Pauli string of length {n}")
    try:
        observables = [PauliString(block).to_operator() for block in _blocks(obs_spec, part)]
    except QcutError as exc:
        raise ConfigError(f"observable: {exc}") from None

    shots = _check_int(config["shots"], "shots", 1, MAX_SHOTS)
    _check_int(config.get("n_batches", 0), "n_batches", 0, min(shots, MAX_DENSE_ENTRIES))
    if seed is None:
        seed = config.get("seed")
    if seed is None:
        raise ConfigError("seed: required (pass --seed or set it in the config)")
    seed = _check_int(seed, "seed", 0)
    try:
        return sampling.ExperimentSpec(decomposition=deco, initial_state=states,
                                       observable=observables, shots=shots, seed=seed)
    except QcutError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_THETA_GRID = ("0", "pi/6", "pi/4", "pi/2", "1.234", "pi")


def _verification_suite():
    yield cuts.wire_cut_ncc()
    for basis in "YXZ":
        yield cuts.wire_cut_cc(basis)
    for m in range(1, 5):
        for mp in range(1, 6 - m):
            yield cuts.mcz_decomposition(m, mp)
    for text in _THETA_GRID:
        theta = parse_angle(text)
        yield cuts.rzz_decomposition_a(theta)
        yield cuts.rzz_decomposition_b(theta)
    for m, mp in ((2, 1), (1, 2), (2, 2)):
        yield cuts.multi_z_rotation_decomposition(m, mp, parse_angle("pi/4"))
    for theta in (parse_angle("pi/5"), parse_angle("pi/2")):
        ops = [((0,), _GATES["x"][0]), ((1,), gates.mcp(1, theta))]
        yield cuts.controlled_sequence_decomposition(ops, 2)


#: ``verify`` flag -> the decomposition field it sets, which is also its dest
_VERIFY_FLAGS = {"--deco": "name", "--m": "m", "--mprime": "m_prime", "--theta": "theta",
                 "--cc-basis": "cc_basis"}


def _reject_unread(given: dict, read, command: str):
    """Refuse, by name, the flags set in ``given`` that ``command`` does not read."""
    unread = [flag for flag, value in given.items() if value is not None and flag not in read]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not read by {command}")


def cmd_verify(args) -> int:
    given = {flag: getattr(args, field) for flag, field in _VERIFY_FLAGS.items()}
    if args.all:
        _reject_unread(given, (), "verify --all")
        decos = list(_verification_suite())
    elif args.name is None:
        raise ConfigError("verify: pass --all or --deco NAME")
    else:
        selector = {_VERIFY_FLAGS[flag]: v for flag, v in given.items() if v is not None}
        decos = [build_decomposition(selector)]
    failed = 0
    for deco in decos:
        report = deco.verify()
        status = "PASS" if report["passed"] else "FAIL"
        print(
            f"{deco.name}: gamma = {_fmt(report['one_norm'])}, "
            f"max|delta| = {_fmt(report['max_abs_deviation'])}  [{status}]"
        )
        if not report["passed"]:
            out, inp = report["worst_entry"]
            print(f"  worst entry: out {out} <- in {inp}")
        failed += not report["passed"]
    print(f"{len(decos) - failed}/{len(decos)} decompositions verified")
    return 1 if failed else 0


def cmd_sample(args) -> int:
    try:
        config = json.loads(_read_text(args.config))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from None
    spec = build_experiment(config, seed=args.seed)
    n_batches = int(config.get("n_batches", 0))
    csv_path = args.batch_csv or config.get("batch_csv")
    if csv_path and not n_batches:
        raise ConfigError("batch_csv: set n_batches > 0 in the config")
    report = sampling.run(spec, n_batches=n_batches)
    print(
        f"estimate = {_fmt(report.estimate)} +/- {_fmt(report.standard_error)}  "
        f"(exact = {_fmt(report.exact_value)}, gamma = {_fmt(report.gamma)}, "
        f"shots = {report.shots}, seed = {report.seed})"
    )
    out_path = args.output or config.get("output")
    if out_path:
        payload = json.dumps(
            report.to_dict(), sort_keys=True, indent=2, allow_nan=False
        ) + "\n"
        _write_text(out_path, payload)
        print(f"report written to {out_path}")
    if csv_path:
        rows = [[k, _fmt(mean)] for k, mean in enumerate(report.batch_means)]
        _write_text(csv_path, _csv_text([["batch_index", "partial_mean"], *rows]))
        print(f"batch means written to {csv_path}")
    return 0


def _norms_catalog():
    yield cuts.wire_cut_ncc(), "-"
    for basis in "YXZ":
        yield cuts.wire_cut_cc(basis), f"cc_basis={basis}"
    for m, mp in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
        yield cuts.mcz_decomposition(m, mp), f"m={m},m'={mp}"
    for text in _THETA_GRID:
        yield cuts.rzz_decomposition_a(parse_angle(text)), f"theta={text}"
    for text in _THETA_GRID:
        yield cuts.rzz_decomposition_b(parse_angle(text)), f"theta={text}"
    yield cuts.multi_z_rotation_decomposition(2, 1, parse_angle("pi/2")), (
        "m=2,m'=1,theta=pi/2"
    )
    ops = [((0,), _GATES["x"][0]), ((1,), gates.mcp(1, np.pi / 5))]
    yield cuts.controlled_sequence_decomposition(ops, 2), "CNOT;phase(pi/5)"


def cmd_norms(args) -> int:
    rows = [["name", "parameters", "gamma", "terms", "needs_cc"]]
    for deco, params in _norms_catalog():
        base = deco.name.split("[")[0]
        cc = sum(t.needs_cc for t in deco.terms)
        rows.append([base, params, _fmt(deco.one_norm()), str(len(deco.terms)), str(cc)])
    if args.csv:
        _write_text(args.csv, _csv_text(rows))
    else:
        sys.stdout.write(_csv_text(rows))
    return 0


def _zx_cnot_variants(n, m, theta):
    for variant in zx.CNOT_VARIANTS:
        dev = max_abs_diff(zx.contract(zx.cnot_diagram(variant)), gates.cnot().mat)
        yield f"cnot[{variant}]", dev


def _zx_states(n, m, theta):
    for kind, phase, ket in (
        ("z", 0.0, np.array([1, 1]) / np.sqrt(2)),
        ("z", np.pi, np.array([1, -1]) / np.sqrt(2)),
        ("x", 0.0, np.array([1, 0])),
        ("x", np.pi, np.array([0, 1])),
    ):
        vec = zx.contract(zx.state_diagram(kind, phase)).ravel()
        yield f"state[{kind},{_fmt(phase)}]", max_abs_diff(vec, np.sqrt(2) * ket)


def _zx_mcz(n, m, theta):
    n = n or 3
    yield f"mcz[{n}]", max_abs_diff(zx.contract(zx.mcz_diagram(n)), gates.mcz(n).mat)


def _zx_mcp(n, m, theta):
    n = n or 2
    dev = max_abs_diff(zx.contract(zx.mcp_diagram(n, theta)), gates.mcp(n, theta).mat)
    yield f"mcp[{n},{_fmt(theta)}]", dev


def _zx_rzz(n, m, theta):
    dev = max_abs_diff(zx.contract(zx.rzz_diagram(theta)), gates.rzz(theta).mat)
    yield f"rzz[{_fmt(theta)}]", dev


#: ``--n`` of ``zx-check --builtin mcz-fusion`` when it is not given
_FUSION_N = 4


def _zx_mcz_fusion(n, m, theta):
    n = n or _FUSION_N
    m = m or n // 2
    rep = zx.verify_rule(zx.mcz_diagram(n), zx.split_mcz_three_hboxes(n, m))
    yield f"mcz-fusion[n={n},m={m}]", rep["max_abs_deviation"]


def _zx_rules(n, m, theta):
    for rule_name, fn in zx.BUILTIN_RULES.items():
        yield f"rule[{rule_name}]", zx.verify_rule(*fn())["max_abs_deviation"]


#: ``zx-check --builtin`` name -> (check, the flags it reads); a check yields
#: ``(label, max|delta|)`` pairs from ``--n`` and ``--m`` (None when not
#: given, else >= 1) and the angle; ``all`` runs them in this order and reads
#: every flag one of them reads
_ZX_BUILTINS = {
    "cnot-variants": (_zx_cnot_variants, ()),
    "states": (_zx_states, ()),
    "mcz": (_zx_mcz, ("--n",)),
    "mcp": (_zx_mcp, ("--n", "--theta")),
    "rzz": (_zx_rzz, ("--theta",)),
    "mcz-fusion": (_zx_mcz_fusion, ("--n", "--m")),
    "rules": (_zx_rules, ()),
}


def _zx_builtin(args, given: dict) -> int:
    name = args.builtin
    if name not in (*_ZX_BUILTINS, "all"):
        raise ConfigError(f"zx-check: unknown builtin {name!r}")
    if args.files:
        raise ConfigError("zx-check: pass --builtin NAME or diagram files, not both")
    checks = _ZX_BUILTINS.values() if name == "all" else [_ZX_BUILTINS[name]]
    read = {flag for _, flags in checks for flag in flags}
    _reject_unread(given, read, f"zx-check --builtin {name}")
    theta = _parse_theta(args.theta, "--theta") if args.theta is not None else np.pi / 2
    for flag, value in (("--n", args.n), ("--m", args.m)):
        if value is not None:
            _check_int(value, flag, 1, MAX_QUBITS)
    # mcz-fusion, the one check that reads --m, splits --n qubits as 1 <= m < n
    if any(check is _zx_mcz_fusion for check, _ in checks):
        n = _check_int(args.n or _FUSION_N, "--n", 2, MAX_QUBITS)
        if args.m is not None:
            _check_int(args.m, "--m", 1, n - 1)
    failures = 0
    for check, _ in checks:
        for label, dev in check(args.n, args.m, theta):
            ok = dev <= zx.RULE_ATOL
            print(f"{label}: {'PASS' if ok else 'FAIL'}  max|delta| = {_fmt(dev)}")
            failures += not ok
    return 1 if failures else 0


def cmd_zx_check(args) -> int:
    given = {"--n": args.n, "--m": args.m, "--theta": args.theta,
             "--up-to-scalar": args.up_to_scalar or None}
    if args.builtin:
        return _zx_builtin(args, given)
    if not 1 <= len(args.files) <= 2:
        raise ConfigError("zx-check: pass --builtin NAME or one or two diagram files")
    read = ("--up-to-scalar",) if len(args.files) == 2 else ()
    _reject_unread(given, read, "zx-check" + " FILE" * len(args.files))
    diagrams = [zx.parse_diagram(_read_text(path)) for path in args.files]
    if len(diagrams) == 1:
        mat = zx.contract(diagrams[0])
        print(f"shape: {mat.shape[0]} x {mat.shape[1]}")
        for row in mat:
            print("  ".join(f"{v.real:+.12g}{v.imag:+.12g}j" for v in row))
        return 0
    rep = zx.verify_rule(*diagrams, up_to_scalar=args.up_to_scalar)
    print(f"max|delta| = {_fmt(rep['max_abs_deviation'])}")
    if args.up_to_scalar:
        ratio = rep["scalar_ratio"]
        print(
            f"scalar ratio = {ratio.real:+.12g}{ratio.imag:+.12g}j, "
            f"residual = {_fmt(rep['scalar_residual'])}"
        )
        return 0 if rep["equal_up_to_scalar"] else 1
    return 0 if rep["equal"] else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcut", description="Quasiprobability circuit-cutting toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify decomposition reconstructions")
    p.add_argument("--all", action="store_true", help="run the full built-in suite")
    flag_of = {field: flag for flag, field in _VERIFY_FLAGS.items()}
    families = [" ".join([name, *map(flag_of.get, fields)])
                for name, (_, fields) in _FAMILIES.items() if set(fields) <= set(flag_of)]
    p.add_argument("--deco", dest="name", metavar="DECO", help="; ".join(families))
    p.add_argument("--m", type=int)
    p.add_argument("--mprime", dest="m_prime", metavar="MPRIME", type=int)
    p.add_argument("--theta", help="angle, e.g. pi/4")
    p.add_argument("--cc-basis", dest="cc_basis", metavar="{X,Y,Z}")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="run a sampling experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="overrides the config's seed")
    p.add_argument("--output", help="JSON report path (overrides config)")
    p.add_argument("--batch-csv", dest="batch_csv", help="CSV of shot-batch means")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("norms", help="print the 1-norm catalog as CSV")
    p.add_argument("--csv", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("zx-check", help="contract/compare ZX diagrams")
    p.add_argument("files", nargs="*", help="diagram file(s) in the text format")
    p.add_argument(
        "--builtin",
        help=" | ".join([*_ZX_BUILTINS, "all"]),
    )
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--theta")
    p.add_argument("--up-to-scalar", dest="up_to_scalar", action="store_true")
    p.set_defaults(func=cmd_zx_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QcutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, zx.ZXError, SizeCapError)) else 1


if __name__ == "__main__":
    sys.exit(main())
