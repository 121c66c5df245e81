"""Command line interface: problem parsing, reports, sweeps, verification.

Subcommands: ``dims``, ``basis``, ``profile``, ``lv``, ``oracle``,
``verify``, ``sweep``.  Reports are deterministic: fields appear in a fixed
order, every set is sorted, rationals are emitted as "num/den" strings in
lowest terms, and number-theoretic integers (window indices, xi, digit
sums) as decimal strings so consumers never round them.

Exit codes: 0 for success, including the legitimate empty outcome when no
shift subset exists; 1 when a mathematical invariant or an oracle
comparison fails; 2 for invalid input; 3 when a valid request exceeds a
resource limit (the oracle's coefficient-field degree cap).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .cohomology import h1_dimension, jump_profile, window_cardinality
from .errors import (
    InternalInvariantViolation,
    InvalidInput,
    InvariantError,
    NoValidShift,
    ResourceLimitExceeded,
    SchemaError,
    SerreWeightsError,
)
from .serre_basis import (
    BasisLabel,
    basis_labels,
    j_v_ah,
    j_v_ah_bruteforce,
    l_v_ah,
    w_prime,
)
from .series_oracle import rederive_jvah
from .tame_chars import (
    CharacterData,
    FieldParams,
    UnramifiedPart,
    canonical_signature,
    char_quotient,
    character,
    cyclotomic_inertia_signature,
    exponent_class,
    n_values,
    niveau,
    signature_class,
)
from .weight_lattice import (
    SerreWeight,
    minimal_shift_set,
    reduced_exponents,
    ts_profile,
    twist_normalize,
    validate_weight,
    weight_from_r,
)

# ---------------------------------------------------------------------------
# Problem documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    params: FieldParams
    weight: SerreWeight
    chi1: CharacterData
    chi2: CharacterData
    e_m: Optional[int] = None
    fq_degree: Optional[int] = None
    trunc: Optional[int] = None
    chi_cyclotomic: Optional[bool] = None


def _node(doc: dict, key: str, path: str, required: bool = True):
    if key not in doc:
        if required:
            raise SchemaError(f"missing key at {path}.{key}")
        return None
    return doc[key]


def _int_at(doc: dict, key: str, path: str, required: bool = True) -> Optional[int]:
    value = _node(doc, key, path, required)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"expected an integer at {path}.{key}")
    try:
        return int(value)
    except ValueError:
        raise SchemaError(f"expected an integer at {path}.{key}")


def _int_list_at(doc: dict, key: str, path: str) -> Tuple[int, ...]:
    value = _node(doc, key, path)
    if not isinstance(value, list):
        raise SchemaError(f"expected a list of integers at {path}.{key}")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            raise SchemaError(f"expected an integer at {path}.{key}[{i}]")
        out.append(int(item))
    return tuple(out)


def _parse_unram(node, path: str) -> UnramifiedPart:
    if node is None:
        return UnramifiedPart()
    if not isinstance(node, dict):
        raise SchemaError(f"expected an object at {path}")
    degree = _int_at(node, "degree", path)
    dlog = _int_at(node, "dlog", path)
    return UnramifiedPart(degree, dlog)


def _parse_character(params: FieldParams, node, path: str) -> CharacterData:
    if not isinstance(node, dict):
        raise SchemaError(f"expected an object at {path}")
    exps = _int_list_at(node, "exps", path)
    unram = _parse_unram(node.get("unram"), f"{path}.unram")
    cyclotomic = node.get("cyclotomic")
    if cyclotomic is not None and not isinstance(cyclotomic, bool):
        raise SchemaError(f"expected a boolean at {path}.cyclotomic")
    chi = character(params, exps, unram=unram, cyclotomic=cyclotomic)
    declared = node.get("trivial")
    if declared is not None:
        if not isinstance(declared, bool):
            raise SchemaError(f"expected a boolean at {path}.trivial")
        if declared != chi.declared_trivial:
            raise InvalidInput(
                f"{path}.trivial = {declared} contradicts the character data"
            )
    return chi


def parse_problem(doc: dict) -> Problem:
    """Validate a structured problem document into component objects."""
    if not isinstance(doc, dict):
        raise SchemaError("expected a top-level object")
    params_node = _node(doc, "params", "")
    if not isinstance(params_node, dict):
        raise SchemaError("expected an object at .params")
    params = FieldParams(
        _int_at(params_node, "p", ".params"),
        _int_at(params_node, "e", ".params"),
        _int_at(params_node, "f", ".params"),
    )
    weight_node = _node(doc, "weight", "")
    if not isinstance(weight_node, dict):
        raise SchemaError("expected an object at .weight")
    if "r" in weight_node:
        weight = weight_from_r(params, _int_list_at(weight_node, "r", ".weight"))
    else:
        weight = SerreWeight(
            _int_list_at(weight_node, "eta", ".weight"),
            _int_list_at(weight_node, "theta", ".weight"),
        )
        validate_weight(params, weight)
    chi1 = _parse_character(params, _node(doc, "chi1", ""), ".chi1")
    chi2 = _parse_character(params, _node(doc, "chi2", ""), ".chi2")
    e_m = _int_at(doc, "e_m", "", required=False)
    if e_m is not None and (e_m < 1 or params.tame_order % e_m):
        raise InvariantError(
            f"e_m must divide p^f - 1 = {params.tame_order}, got {e_m}"
        )
    fq_degree = trunc = None
    oracle_node = doc.get("oracle")
    if oracle_node is not None:
        if not isinstance(oracle_node, dict):
            raise SchemaError("expected an object at .oracle")
        fq_degree = _int_at(oracle_node, "fq_degree", ".oracle", required=False)
        trunc = _int_at(oracle_node, "trunc", ".oracle", required=False)
    chi_cyclotomic = doc.get("chi_cyclotomic")
    if chi_cyclotomic is not None and not isinstance(chi_cyclotomic, bool):
        raise SchemaError("expected a boolean at .chi_cyclotomic")
    return Problem(params, weight, chi1, chi2, e_m, fq_degree, trunc, chi_cyclotomic)


# ---------------------------------------------------------------------------
# Report helpers
# ---------------------------------------------------------------------------


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ints(values) -> List[str]:
    return [str(v) for v in values]


def _label_dict(label: BasisLabel) -> dict:
    if label.is_alpha:
        return {"kind": "alpha", "m": str(label.m), "k": label.k}
    return {"kind": label.kind}


def _char_dict(params: FieldParams, chi: CharacterData) -> dict:
    return {
        "signature": list(chi.signature.a),
        "class": str(signature_class(params, chi.signature)),
        "unram": {
            "degree": chi.unram.order_field_degree,
            "dlog": str(chi.unram.dlog),
        },
        "trivial": chi.declared_trivial,
        "cyclotomic": chi.declared_cyclotomic,
    }


def _flatten(prefix: str, value, lines: List[str]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, lines)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            lines.append(f"{prefix}: {' '.join(str(v) for v in value)}")
        else:
            for i, v in enumerate(value):
                _flatten(f"{prefix}[{i}]", v, lines)
    else:
        lines.append(f"{prefix}: {value}")


def _emit(report: dict, fmt: str, out_path: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif fmt == "text":
        lines: List[str] = []
        _flatten("", report, lines)
        text = "\n".join(lines) + "\n"
    else:
        raise InvalidInput(f"format {fmt!r} is not available for this command")
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_int_tuple(text: str, what: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidInput(f"{what} must be comma-separated integers, got {text!r}")


def _parse_unram_flag(text: Optional[str]) -> UnramifiedPart:
    if text is None:
        return UnramifiedPart()
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidInput(f"unramified part must be DEGREE:DLOG, got {text!r}")
    try:
        return UnramifiedPart(int(parts[0]), int(parts[1]))
    except ValueError:
        raise InvalidInput(f"unramified part must be DEGREE:DLOG, got {text!r}")


def _params_from_args(args) -> FieldParams:
    return FieldParams(args.p, args.e, args.f)


def _char_from_flags(
    params: FieldParams,
    exps_text: Optional[str],
    unram_text: Optional[str],
    cyclotomic: Optional[bool],
    what: str,
) -> CharacterData:
    if exps_text is None:
        raise InvalidInput(f"missing --{what}-exps")
    exps = _parse_int_tuple(exps_text, f"--{what}-exps")
    return character(
        params, exps, unram=_parse_unram_flag(unram_text), cyclotomic=cyclotomic
    )


def _weight_from_args(params: FieldParams, args) -> SerreWeight:
    if getattr(args, "r", None) is not None:
        return weight_from_r(params, _parse_int_tuple(args.r, "--r"))
    if getattr(args, "eta", None) is None:
        raise InvalidInput("provide either --r or --eta (with optional --theta)")
    eta = _parse_int_tuple(args.eta, "--eta")
    if getattr(args, "theta", None) is not None:
        theta = _parse_int_tuple(args.theta, "--theta")
    else:
        theta = (0,) * params.f
    weight = SerreWeight(eta, theta)
    validate_weight(params, weight)
    return weight


def _pair_problem_from_args(args) -> Problem:
    if getattr(args, "problem", None):
        try:
            if args.problem == "-":
                doc = json.load(sys.stdin)
            else:
                with open(args.problem) as handle:
                    doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"problem document is not valid JSON: {exc}") from exc
        except OSError as exc:
            raise SchemaError(f"cannot read problem document: {exc}") from exc
        return parse_problem(doc)
    params = _params_from_args(args)
    weight = _weight_from_args(params, args)
    chi1 = _char_from_flags(params, args.chi1_exps, args.chi1_unram, None, "chi1")
    chi2 = _char_from_flags(params, args.chi2_exps, args.chi2_unram, None, "chi2")
    if getattr(args, "chi2_unramified", False):
        if signature_class(params, chi2.signature) % params.tame_order:
            raise InvalidInput("--chi2-unramified contradicts the chi2 exponents")
    return Problem(
        params,
        weight,
        chi1,
        chi2,
        e_m=getattr(args, "e_m", None),
        fq_degree=getattr(args, "fq_degree", None),
        trunc=getattr(args, "trunc", None),
        chi_cyclotomic=True if getattr(args, "chi_cyclotomic", False) else None,
    )


# ---------------------------------------------------------------------------
# Single-instance commands
# ---------------------------------------------------------------------------


def cmd_dims(args) -> Tuple[dict, int]:
    params = _params_from_args(args)
    chi = _char_from_flags(
        params,
        args.chi_exps,
        args.chi_unram,
        True if args.chi_cyclotomic else None,
        "chi",
    )
    if args.chi_trivial and not chi.declared_trivial:
        raise InvalidInput("--chi-trivial contradicts the character data")
    profile = jump_profile(params, chi)
    report = {
        "command": "dims",
        "params": {"p": params.p, "e": params.e, "f": params.f},
        "chi": _char_dict(params, chi),
        "h1": profile.total,
        "jump_profile": [
            {"s": _frac(s), "dim": d} for s, d in profile.entries
        ],
        "windows": [window_cardinality(params, chi, j) for j in range(params.e)],
        "status": "ok",
    }
    return report, 0


def cmd_basis(args) -> Tuple[dict, int]:
    params = _params_from_args(args)
    chi = _char_from_flags(
        params,
        args.chi_exps,
        args.chi_unram,
        True if args.chi_cyclotomic else None,
        "chi",
    )
    if args.chi_trivial and not chi.declared_trivial:
        raise InvalidInput("--chi-trivial contradicts the character data")
    f_prime, f_dprime = niveau(params, chi.signature)
    report = {
        "command": "basis",
        "params": {"p": params.p, "e": params.e, "f": params.f},
        "chi": _char_dict(params, chi),
        "n_values": _ints(n_values(params, chi.signature)),
        "niveau": f_prime,
        "w_prime": _ints(w_prime(params, chi)),
        "labels": [_label_dict(lbl) for lbl in basis_labels(params, chi)],
        "status": "ok",
    }
    return report, 0


def _profile_payload(params: FieldParams, problem: Problem) -> Tuple[dict, object]:
    normalized, c1, c2 = twist_normalize(
        params, problem.weight, problem.chi1, problem.chi2
    )
    r = tuple(eta_i + 1 for eta_i in normalized.eta)
    chi = char_quotient(params, c1, c2, declare_cyclotomic=problem.chi_cyclotomic)
    profile = ts_profile(params, r, c1, c2)
    payload = {
        "r": list(r),
        "chi": _char_dict(params, chi),
        "m": list(reduced_exponents(params, c2)),
        "j_min": sorted(profile.j_min),
        "t": list(profile.t),
        "s": list(profile.s),
        "intervals": [list(I) for I in profile.intervals],
        "xi": _ints(profile.xi),
        "n_values": _ints(n_values(params, chi.signature)),
    }
    return payload, (profile, chi, c1, c2, r)


def cmd_profile(args) -> Tuple[dict, int]:
    problem = _pair_problem_from_args(args)
    params = problem.params
    report = {
        "command": "profile",
        "params": {"p": params.p, "e": params.e, "f": params.f},
    }
    try:
        payload, _ = _profile_payload(params, problem)
    except NoValidShift as exc:
        report.update({"detail": str(exc), "status": "lv_empty"})
        return report, 0
    report.update(payload)
    report["status"] = "ok"
    return report, 0


def cmd_lv(args) -> Tuple[dict, int]:
    problem = _pair_problem_from_args(args)
    params = problem.params
    report = {
        "command": "lv",
        "params": {"p": params.p, "e": params.e, "f": params.f},
    }
    try:
        result = l_v_ah(
            params,
            problem.weight,
            problem.chi1,
            problem.chi2,
            e_m=problem.e_m,
            chi_cyclotomic=problem.chi_cyclotomic,
        )
    except NoValidShift as exc:
        report.update(
            {
                "detail": f"L_V empty: no labels ({exc})",
                "labels": [],
                "dimension": 0,
                "status": "lv_empty",
            }
        )
        return report, 0
    report.update(
        {
            "exceptional": result.exceptional,
            "labels": [_label_dict(lbl) for lbl in result.labels],
            "dimension": result.dimension,
            "e_m": str(result.e_m),
            "status": "ok",
        }
    )
    if result.extra_degree is not None:
        report["extra_degree_index"] = result.extra_degree_index
        report["extra_degree"] = str(result.extra_degree)
    return report, 0


def cmd_oracle(args) -> Tuple[dict, int]:
    problem = _pair_problem_from_args(args)
    params = problem.params
    report = {
        "command": "oracle",
        "params": {"p": params.p, "e": params.e, "f": params.f},
    }
    try:
        payload, extras = _profile_payload(params, problem)
    except NoValidShift as exc:
        report.update({"detail": str(exc), "status": "lv_empty"})
        return report, 0
    profile, chi = extras[0], extras[1]
    report.update(payload)
    constructive = j_v_ah(params, profile, chi, problem.e_m)
    bruteforce = j_v_ah_bruteforce(params, profile, chi, problem.e_m)
    oracle = rederive_jvah(
        params,
        profile,
        chi,
        e_m=problem.e_m,
        fq_degree=problem.fq_degree,
        trunc=problem.trunc,
    )
    agree = constructive == bruteforce == oracle
    report.update(
        {
            "j_constructive": [
                _label_dict(l) for l in sorted(constructive, key=BasisLabel.sort_key)
            ],
            "j_bruteforce": [
                _label_dict(l) for l in sorted(bruteforce, key=BasisLabel.sort_key)
            ],
            "j_oracle": [
                _label_dict(l) for l in sorted(oracle, key=BasisLabel.sort_key)
            ],
            "agree": agree,
            "status": "ok" if agree else "oracle_mismatch",
        }
    )
    return report, 0 if agree else 1


# ---------------------------------------------------------------------------
# Grid machinery shared by verify and sweep
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13)


def _grid_cells(p_max: int, e_max: int, f_max: int) -> List[Tuple[int, int, int]]:
    return [
        (p, e, f)
        for p in _PRIMES
        if p <= p_max
        for e in range(1, e_max + 1)
        for f in range(1, f_max + 1)
    ]


def _cell_instances(cell: Tuple[int, int, int]) -> List[Tuple[int, int, int, int, Tuple[int, ...]]]:
    p, e, f = cell
    params = FieldParams(p, e, f)
    return [
        (p, e, f, chi2_class, r)
        for chi2_class in range(params.tame_order)
        for r in product(range(1, p + 1), repeat=f)
    ]


def _build_instance(spec: Tuple[int, int, int, int, Tuple[int, ...]]):
    """Params, consistent character pair, and normalized r for a grid point."""
    p, e, f, chi2_class, r = spec
    params = FieldParams(p, e, f)
    chi2 = character(params, (chi2_class,) + (0,) * (f - 1))
    m = reduced_exponents(params, chi2)
    j_min = minimal_shift_set(params, r, m)  # may raise NoValidShift
    t = list(m)
    for i in j_min:
        t[i] -= 1
        t[(i + 1) % f] += p
    s = tuple(ri + e - 1 - ti for ri, ti in zip(r, t))
    diff_class = sum(
        (si - ti) * pow(p, (f - i) % f, params.tame_order)
        for i, (si, ti) in enumerate(zip(s, t))
    )
    chi1 = character(params, (chi2_class + diff_class,) + (0,) * (f - 1))
    return params, chi1, chi2


def _sweep_worker(spec: Tuple[int, int, int, int, Tuple[int, ...]]) -> Tuple[str, ...]:
    p, e, f, chi2_class, r = spec
    sig_text = ""
    try:
        params, chi1, chi2 = _build_instance(spec)
    except NoValidShift:
        return (
            str(p), str(e), str(f), sig_text, "|".join(map(str, r)),
            "", "", "", "0", "0", "1",
        )
    profile = ts_profile(params, r, chi1, chi2)
    chi = char_quotient(params, chi1, chi2)
    sig_text = "|".join(map(str, chi.signature.a))
    constructive = j_v_ah(params, profile, chi)
    bruteforce = j_v_ah_bruteforce(params, profile, chi)
    total = profile.interval_total()
    ok = constructive == bruteforce and len(constructive) == total
    return (
        str(p), str(e), str(f), sig_text, "|".join(map(str, r)),
        "|".join(map(str, profile.t)), "|".join(map(str, profile.s)),
        "|".join(map(str, profile.xi)),
        str(len(constructive)), str(total), "1" if ok else "0",
    )


_SWEEP_HEADER = ("p", "e", "f", "chi_sig", "r", "t", "s", "xi", "|J|", "sum|I|", "ok")


def _worker_count(jobs: int) -> int:
    """The --jobs value clamped to the CPU count; below 1 is invalid input."""
    if jobs < 1:
        raise InvalidInput(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def cmd_sweep(args) -> Tuple[Optional[dict], int]:
    jobs = _worker_count(args.jobs)
    cells = _grid_cells(args.p_max, args.e_max, args.f_max)
    instances = [spec for cell in cells for spec in _cell_instances(cell)]
    if args.max_instances and len(instances) > args.max_instances:
        stride = -(-len(instances) // args.max_instances)
        instances = instances[::stride]
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            rows = pool.map(_sweep_worker, instances, chunksize=64)
    else:
        rows = [_sweep_worker(spec) for spec in instances]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_SWEEP_HEADER)
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    failures = sum(1 for row in rows if row[-1] == "0")
    return None, 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# The verification suite
# ---------------------------------------------------------------------------


def _verify_character_cell(cell: Tuple[int, int, int]) -> List[Tuple[str, str]]:
    """Character-level properties over every signature class of one cell."""
    p, e, f = cell
    params = FieldParams(p, e, f)
    failures = []
    for cls in range(params.tame_order):
        chis = [character(params, (cls,) + (0,) * (f - 1))]
        if params.p > 2 and chis[0].signature == cyclotomic_inertia_signature(params):
            chis.append(
                character(params, (cls,) + (0,) * (f - 1), cyclotomic=True)
            )
        for chi in chis:
            where = f"p={p} e={e} f={f} class={cls} cyc={chi.declared_cyclotomic}"
            try:
                profile = jump_profile(params, chi)
                if profile.total != h1_dimension(params, chi):
                    failures.append(("dimension_sum", where))
                top = 1 + Fraction(e * p, p - 1)
                f_prime, f_dprime = niveau(params, chi.signature)
                for s, d in profile.entries:
                    if 0 < s < top and d != f_dprime:
                        failures.append(("jump_size", where))
                        break
                if any(
                    window_cardinality(params, chi, j) != f for j in range(e)
                ):
                    failures.append(("window_count", where))
                if len(w_prime(params, chi)) != e * f_prime:
                    failures.append(("w_prime_cardinality", where))
                if len(basis_labels(params, chi)) != h1_dimension(params, chi):
                    failures.append(("basis_cardinality", where))
            except SerreWeightsError as exc:
                failures.append(("unexpected_error", f"{where}: {exc!r}"))
    return failures


def _verify_pair_instance(spec) -> List[Tuple[str, str]]:
    p, e, f, chi2_class, r = spec
    where = f"p={p} e={e} f={f} chi2_class={chi2_class} r={r}"
    try:
        return _pair_checks(spec, where)
    except NoValidShift:
        return []
    except SerreWeightsError as exc:
        return [("unexpected_error", f"{where}: {exc!r}")]


def _pair_checks(spec, where: str) -> List[Tuple[str, str]]:
    """Profile and label-set properties for one (r, chi2) grid point."""
    p, e, f, chi2_class, r = spec
    failures: List[Tuple[str, str]] = []
    params, chi1, chi2 = _build_instance(spec)
    profile = ts_profile(params, r, chi1, chi2)
    chi = char_quotient(params, chi1, chi2)
    q1 = params.tame_order
    for i in range(f):
        allowed = set(range(e)) | set(range(r[i], r[i] + e))
        if profile.s[i] + profile.t[i] != r[i] + e - 1:
            failures.append(("profile_reflection", where))
        if profile.t[i] not in allowed or profile.s[i] not in allowed:
            failures.append(("profile_membership", where))
        if (profile.xi[i] - n_values(params, chi.signature)[i]) % q1:
            failures.append(("xi_congruence", where))
    m = reduced_exponents(params, chi2)
    valid_subsets = []
    for mask in range(1 << f):
        shifted = list(m)
        for i in range(f):
            if mask >> i & 1:
                shifted[i] -= 1
                shifted[(i + 1) % f] += p
        if all(
            0 <= x < e or r[i] <= x < r[i] + e for i, x in enumerate(shifted)
        ):
            subset = frozenset(i for i in range(f) if mask >> i & 1)
            if canonical_signature(params, tuple(shifted)) == chi2.signature:
                valid_subsets.append(subset)
    if any(not profile.j_min <= other for other in valid_subsets):
        failures.append(("j_min_least", where))
    constructive = j_v_ah(params, profile, chi)
    bruteforce = j_v_ah_bruteforce(params, profile, chi)
    if constructive != bruteforce:
        failures.append(("constructive_vs_bruteforce", where))
    if len(constructive) != profile.interval_total():
        failures.append(("j_size_equals_interval_total", where))
    labels = set(basis_labels(params, chi))
    if any(label not in labels for label in constructive):
        failures.append(("labels_within_basis", where))
    gcd_n = gcd(q1, *n_values(params, chi.signature))
    for e_m in _divisors(q1):
        if gcd_n % (q1 // e_m) == 0:
            if j_v_ah(params, profile, chi, e_m) != constructive:
                failures.append(("e_m_independence", where))
            elif j_v_ah_bruteforce(params, profile, chi, e_m) != constructive:
                failures.append(("e_m_independence", where))
    result = l_v_ah(params, weight_from_r(params, r), chi1, chi2)
    alphas = {label for label in result.labels if label.is_alpha}
    if not result.exceptional and alphas != constructive:
        failures.append(("lv_alpha_labels", where))
    return failures


def _verify_twist_instance(spec_and_theta) -> List[Tuple[str, str]]:
    """l_v_ah of a theta-twisted instance equals l_v_ah of its normalization.

    The grid instance is consistent at theta = 0, so the twisted instance
    must carry characters with the theta class added back; twist_normalize
    inside l_v_ah then lands exactly on the plain instance.
    """
    spec, theta = spec_and_theta
    p, e, f, chi2_class, r = spec
    where = f"p={p} e={e} f={f} chi2_class={chi2_class} r={r} theta={theta}"
    try:
        params, c1, c2 = _build_instance(spec)
        twist_cls = exponent_class(params, theta)
        zeros = (0,) * (f - 1)
        chi1 = character(
            params, (signature_class(params, c1.signature) + twist_cls,) + zeros
        )
        chi2 = character(
            params, (signature_class(params, c2.signature) + twist_cls,) + zeros
        )
        weight = SerreWeight(
            tuple(ri - 1 + th for ri, th in zip(r, theta)), tuple(theta)
        )
        twisted = l_v_ah(params, weight, chi1, chi2)
        plain = l_v_ah(params, weight_from_r(params, r), c1, c2)
    except NoValidShift:
        return []
    except SerreWeightsError as exc:
        return [("unexpected_error", f"{where}: {exc!r}")]
    if twisted.labels != plain.labels:
        return [("twist_invariance", where)]
    return []


def _divisors(n: int) -> List[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


_ORACLE_MUS: Dict[int, Tuple[UnramifiedPart, ...]] = {
    2: (UnramifiedPart(1, 0), UnramifiedPart(2, 1)),
    3: (UnramifiedPart(1, 0), UnramifiedPart(1, 1), UnramifiedPart(2, 2)),
}


def _verify_oracle_instance(spec_and_mu) -> List[Tuple[str, str]]:
    spec, mu = spec_and_mu
    p, e, f, chi2_class, r = spec
    where = (
        f"p={p} e={e} f={f} chi2_class={chi2_class} r={r} "
        f"mu={mu.order_field_degree}:{mu.dlog}"
    )
    try:
        params, chi1_plain, chi2 = _build_instance(spec)
        chi1 = character(params, chi1_plain.signature.a, unram=mu)
        profile = ts_profile(params, r, chi1, chi2)
        chi = char_quotient(params, chi1, chi2)
        constructive = j_v_ah(params, profile, chi)
        oracle = rederive_jvah(params, profile, chi)
    except NoValidShift:
        return []
    except SerreWeightsError as exc:
        return [("unexpected_error", f"{where}: {exc!r}")]
    if oracle != constructive:
        return [("oracle_agreement", where)]
    return []


def cmd_verify(args) -> Tuple[dict, int]:
    jobs = _worker_count(args.jobs)
    cells = _grid_cells(args.p_max, args.e_max, args.f_max)
    pair_instances = [spec for cell in cells for spec in _cell_instances(cell)]
    if args.max_instances and len(pair_instances) > args.max_instances:
        stride = -(-len(pair_instances) // args.max_instances)
        pair_instances = pair_instances[::stride]
    twist_jobs = []
    for index, spec in enumerate(pair_instances):
        if index % 17 == 0:  # deterministic sample, every 17th instance
            p, e, f = spec[0], spec[1], spec[2]
            theta = tuple((index + i) % (p - 1) if p > 2 else 0 for i in range(f))
            twist_jobs.append((spec, theta))
    oracle_jobs = []
    if args.with_oracle:
        for cell in _grid_cells(min(args.p_max, 3), min(args.e_max, 2), min(args.f_max, 2)):
            for spec in _cell_instances(cell):
                for mu in _ORACLE_MUS[cell[0]]:
                    oracle_jobs.append((spec, mu))
    failures: List[Tuple[str, str]] = []
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            for result in pool.map(_verify_character_cell, cells, chunksize=1):
                failures.extend(result)
            for result in pool.map(_verify_pair_instance, pair_instances, chunksize=64):
                failures.extend(result)
            for result in pool.map(_verify_twist_instance, twist_jobs, chunksize=16):
                failures.extend(result)
            for result in pool.map(_verify_oracle_instance, oracle_jobs, chunksize=4):
                failures.extend(result)
    else:
        for cell in cells:
            failures.extend(_verify_character_cell(cell))
        for spec in pair_instances:
            failures.extend(_verify_pair_instance(spec))
        for job in twist_jobs:
            failures.extend(_verify_twist_instance(job))
        for job in oracle_jobs:
            failures.extend(_verify_oracle_instance(job))
    properties = [
        "dimension_sum", "jump_size", "window_count", "w_prime_cardinality",
        "basis_cardinality", "profile_reflection", "profile_membership",
        "xi_congruence", "j_min_least", "constructive_vs_bruteforce",
        "j_size_equals_interval_total", "labels_within_basis",
        "e_m_independence", "lv_alpha_labels", "twist_invariance",
    ]
    if args.with_oracle:
        properties.append("oracle_agreement")
    properties.append("unexpected_error")
    by_name: Dict[str, List[str]] = {name: [] for name in properties}
    for name, where in failures:
        by_name.setdefault(name, []).append(where)
    report = {
        "command": "verify",
        "grid": {
            "p_max": args.p_max,
            "e_max": args.e_max,
            "f_max": args.f_max,
            "with_oracle": bool(args.with_oracle),
        },
        "pair_instances": len(pair_instances),
        "twist_instances": len(twist_jobs),
        "oracle_instances": len(oracle_jobs),
        "properties": [
            {
                "name": name,
                "failures": len(cases),
                "first_counterexample": cases[0] if cases else None,
            }
            for name, cases in by_name.items()
        ],
        "status": "ok" if not failures else "failed",
    }
    return report, 0 if not failures else 1


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _add_char_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chi-exps", help="comma-separated inertial exponents")
    parser.add_argument("--chi-unram", help="unramified part as DEGREE:DLOG")
    parser.add_argument("--chi-trivial", action="store_true",
                        help="assert the character is trivial")
    parser.add_argument("--chi-cyclotomic", action="store_true",
                        help="declare the character cyclotomic")


def _add_pair_flags(parser: argparse.ArgumentParser, oracle: bool = False) -> None:
    parser.add_argument("--p", type=int)
    parser.add_argument("--e", type=int)
    parser.add_argument("--f", type=int)
    parser.add_argument("--r", help="comma-separated r tuple (theta = 0 weights)")
    parser.add_argument("--eta", help="comma-separated eta tuple")
    parser.add_argument("--theta", help="comma-separated theta tuple")
    parser.add_argument("--chi1-exps", help="inertial exponents of chi1")
    parser.add_argument("--chi1-unram", help="unramified part of chi1, DEGREE:DLOG")
    parser.add_argument("--chi2-exps", help="inertial exponents of chi2")
    parser.add_argument("--chi2-unram", help="unramified part of chi2, DEGREE:DLOG")
    parser.add_argument("--chi2-unramified", action="store_true",
                        help="assert chi2 is unramified on inertia")
    parser.add_argument("--chi-cyclotomic", action="store_true",
                        help="declare chi1/chi2 cyclotomic")
    parser.add_argument("--e-m", type=int, dest="e_m",
                        help="auxiliary tame degree, defaults to p^f - 1")
    parser.add_argument("--problem", help="JSON problem document ('-' for stdin)")
    if oracle:
        parser.add_argument("--fq-degree", type=int, dest="fq_degree",
                            help="coefficient field degree for the oracle")
        parser.add_argument("--trunc", type=int,
                            help="series truncation degree for the oracle")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text", "csv"), default="json")
    parser.add_argument("--out", help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serreweights",
        description="Explicit basis labels and distinguished subspaces for "
        "tame two-dimensional mod-p extensions, with a series oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser("dims", help="jump filtration dimensions")
    for q in (p_dims,):
        q.add_argument("--p", type=int, required=True)
        q.add_argument("--e", type=int, required=True)
        q.add_argument("--f", type=int, required=True)
        _add_char_flags(q)
        _add_output_flags(q)
    p_dims.set_defaults(func=cmd_dims)

    p_basis = sub.add_parser("basis", help="index sets and basis labels")
    p_basis.add_argument("--p", type=int, required=True)
    p_basis.add_argument("--e", type=int, required=True)
    p_basis.add_argument("--f", type=int, required=True)
    _add_char_flags(p_basis)
    _add_output_flags(p_basis)
    p_basis.set_defaults(func=cmd_basis)

    p_profile = sub.add_parser("profile", help="shift profile (t, s, I, xi)")
    _add_pair_flags(p_profile)
    _add_output_flags(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_lv = sub.add_parser("lv", help="distinguished subspace labels")
    _add_pair_flags(p_lv)
    _add_output_flags(p_lv)
    p_lv.set_defaults(func=cmd_lv)

    p_oracle = sub.add_parser("oracle", help="residue-pairing re-derivation")
    _add_pair_flags(p_oracle, oracle=True)
    _add_output_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run the property suite on a grid")
    p_verify.add_argument("--p-max", type=int, default=3)
    p_verify.add_argument("--e-max", type=int, default=2)
    p_verify.add_argument("--f-max", type=int, default=2)
    p_verify.add_argument("--with-oracle", action="store_true")
    p_verify.add_argument("--max-instances", type=int, default=0,
                          help="stride-subsample beyond this many instances")
    p_verify.add_argument("--jobs", type=int, default=1)
    _add_output_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over a parameter grid")
    p_sweep.add_argument("--p-max", type=int, default=3)
    p_sweep.add_argument("--e-max", type=int, default=2)
    p_sweep.add_argument("--f-max", type=int, default=2)
    p_sweep.add_argument("--max-instances", type=int, default=0)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report, code = args.func(args)
        if report is not None:
            _emit(report, getattr(args, "format", "json"), getattr(args, "out", None))
    except InternalInvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 1
    except InvalidInput as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    except ResourceLimitExceeded as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3
    except SerreWeightsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
