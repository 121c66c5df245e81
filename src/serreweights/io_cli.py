"""Command line interface: problem parsing, reports, sweeps, verification.

Subcommands: ``dims``, ``basis``, ``profile``, ``lv``, ``oracle``,
``verify``, ``sweep``.  Reports are deterministic: fields appear in a fixed
order, every set is sorted, rationals are emitted as "num/den" strings in
lowest terms, and number-theoretic integers (window indices, xi, digit
sums) as decimal strings so consumers never round them.

The pair commands ``profile``, ``lv`` and ``oracle`` take the same flags,
which spell a problem document, the same one ``--problem`` reads, and
``parse_problem`` alone builds and checks the ``Problem``; a pair flag
beside ``--problem`` is rejected, and so is a document key nothing reads.
``dims`` and ``basis`` read their flags as a document's ``.chi`` node.
Error messages name document paths.

Exit codes: 0 for success, including the legitimate empty outcome when no
shift subset exists; 1 when a mathematical invariant or an oracle
comparison fails; 2 for invalid input; 3 when a valid request exceeds a
resource limit (the bound below which the primality test of p is exact,
the field degree cap, or the oracle's component bound).

``argparse``, ``json``, ``csv`` and ``multiprocessing`` are imported where
used, so importing the library loads none of them.
"""

from __future__ import annotations

import io
import os
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd
from typing import (
    TYPE_CHECKING, Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple
)

from .cohomology import _jump_levels, h1_dimension, jump_profile, window_cardinality
from .errors import (
    InternalInvariantViolation,
    InvalidInput,
    NoValidShift,
    ResourceLimitExceeded,
    SchemaError,
    SerreWeightsError,
)
from .serre_basis import (
    BasisLabel,
    _normalized,
    basis_labels,
    j_v_ah,
    j_v_ah_bruteforce,
    l_v_ah,
    validate_e_m,
    w_prime,
)
from .series_oracle import rederive_jvah
from .tame_chars import (
    CharacterData,
    FieldParams,
    UnramifiedPart,
    char_quotient,
    character,
    cyclotomic_inertia_signature,
    exponent_class,
    is_unramified,
    n_values,
    niveau,
    signature_class,
)
from .weight_lattice import (
    SerreWeight,
    _admissible,
    _least_shift,
    reduced_exponents,
    ts_profile,
    validate_weight,
    weight_from_r,
)

if TYPE_CHECKING:
    import argparse

# ---------------------------------------------------------------------------
# Problem documents
# ---------------------------------------------------------------------------


class Problem(NamedTuple):
    params: FieldParams
    weight: SerreWeight
    chi1: CharacterData
    chi2: CharacterData
    e_m: Optional[int] = None
    chi_cyclotomic: Optional[bool] = None


def _object(node, path: str, *keys: str) -> dict:
    """``node`` as an object whose keys are all among ``keys``."""
    if not isinstance(node, dict):
        raise SchemaError(f"expected an object at {path}" if path
                          else "expected a top-level object")
    for key in node:
        if key not in keys:
            raise SchemaError(f"unknown key at {path}.{key}")
    return node


def _node(doc: dict, key: str, path: str, required: bool = True):
    if key not in doc:
        if required:
            raise SchemaError(f"missing key at {path}.{key}")
        return None
    return doc[key]


def _decimal(text: str) -> int:
    """The integer of an optional sign and ASCII digits, the one integer text
    of flags and documents; anything else raises ValueError, even text that
    ``int`` reads ("1_0", " 1", non-ASCII digits)."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not decimal text: {text!r}")
    return int(text)


def _as_int(value, where: str) -> int:
    """An integer or decimal text (``_decimal``); anything else is a schema
    error."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"expected an integer at {where}")
    try:
        return _decimal(value) if isinstance(value, str) else value
    except ValueError:
        raise SchemaError(f"expected an integer at {where}")


def _int_at(doc: dict, key: str, path: str, required: bool = True) -> Optional[int]:
    value = _node(doc, key, path, required)
    if value is None and not required:
        return None
    return _as_int(value, f"{path}.{key}")


def _bool_at(doc: dict, key: str, path: str) -> Optional[bool]:
    value = _node(doc, key, path, required=False)
    if value is not None and not isinstance(value, bool):
        raise SchemaError(f"expected a boolean at {path}.{key}")
    return value


def _int_list_at(doc: dict, key: str, path: str) -> Tuple[int, ...]:
    value = _node(doc, key, path)
    if not isinstance(value, list):
        raise SchemaError(f"expected a list of integers at {path}.{key}")
    return tuple(_as_int(item, f"{path}.{key}[{i}]") for i, item in enumerate(value))


def _parse_unram(node, path: str) -> UnramifiedPart:
    if node is None:
        return UnramifiedPart()
    _object(node, path, "degree", "dlog")
    degree = _int_at(node, "degree", path)
    dlog = _int_at(node, "dlog", path)
    return UnramifiedPart(degree, dlog)


def _parse_character(params: FieldParams, node, path: str) -> CharacterData:
    _object(node, path, "exps", "unram", "cyclotomic", "trivial")
    exps = _int_list_at(node, "exps", path)
    unram = _parse_unram(node.get("unram"), f"{path}.unram")
    cyclotomic = _bool_at(node, "cyclotomic", path)
    chi = character(params, exps, unram=unram, cyclotomic=cyclotomic)
    declared = _bool_at(node, "trivial", path)
    if declared is not None and declared != chi.declared_trivial:
        raise InvalidInput(f"{path}.trivial = {declared} contradicts the character data")
    return chi


def parse_problem(doc: dict) -> Problem:
    """Validate a structured problem document into component objects."""
    _object(doc, "", "params", "weight", "chi1", "chi2", "e_m", "chi_cyclotomic")
    params_node = _object(_node(doc, "params", ""), ".params", "p", "e", "f")
    params = FieldParams(
        _int_at(params_node, "p", ".params"),
        _int_at(params_node, "e", ".params"),
        _int_at(params_node, "f", ".params"),
    )
    weight_node = _object(_node(doc, "weight", ""), ".weight", "r", "eta", "theta")
    if "r" in weight_node:
        beside = [f".weight.{key}" for key in ("eta", "theta") if key in weight_node]
        if beside:
            raise SchemaError(f".weight.r given beside {', '.join(beside)}")
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
    chi_cyclotomic = _bool_at(doc, "chi_cyclotomic", "")
    # The quotient is twist-invariant, and this is _normalized's memo key.
    chi = char_quotient(params, chi1, chi2, chi_cyclotomic)
    if e_m is not None:
        validate_e_m(params, chi, e_m)
    return Problem(params, weight, chi1, chi2, e_m, chi_cyclotomic)


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


def _sorted_labels(labels) -> List[dict]:
    return [_label_dict(label) for label in sorted(labels, key=BasisLabel.sort_key)]


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


def _report_head(command: str, params: FieldParams) -> dict:
    return {"command": command, "params": {"p": params.p, "e": params.e, "f": params.f}}


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


def _write(text: str, out_path: Optional[str], mode: str = "w") -> None:
    """Write to ``out_path``, or to stdout without one; unwritable is invalid input."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, mode) as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _check_out(out_path: Optional[str]) -> None:
    """Fail on an unwritable ``out_path`` before a grid runs; opening it to
    append nothing leaves an existing file as it is."""
    if out_path:
        _write("", out_path, "a")


def _emit(report: dict, fmt: str, out_path: Optional[str]) -> None:
    if fmt == "json":
        import json

        text = json.dumps(report, indent=2) + "\n"
    else:
        lines: List[str] = []
        _flatten("", report, lines)
        text = "\n".join(lines) + "\n"
    _write(text, out_path)


# ---------------------------------------------------------------------------
# Flags as a problem document
# ---------------------------------------------------------------------------


def _given(**nodes) -> dict:
    """The nodes that hold a value: a flag not given leaves its key out, so
    ``parse_problem`` names the path of whatever is missing."""
    return {key: node for key, node in nodes.items() if node not in (None, {})}


def _csv_node(text: Optional[str]) -> Optional[List[str]]:
    """A comma-separated flag as its entries, decimal strings for ``_as_int``."""
    return None if text is None else text.split(",")


def _char_node(args, name: str, **declared: Optional[bool]) -> dict:
    """The node of ``--NAME-exps`` and ``--NAME-unram DEGREE:DLOG``; without
    one colon the dlog is not an integer."""
    unram = getattr(args, f"{name}_unram")
    if unram is not None:
        degree, _, dlog = unram.partition(":")
        unram = {"degree": degree, "dlog": dlog}
    exps = _csv_node(getattr(args, f"{name}_exps"))
    return _given(exps=exps, unram=unram, **declared)


def _flags_document(args) -> dict:
    """The problem document that the pair-command flags spell."""
    weight = _given(
        r=_csv_node(args.r), eta=_csv_node(args.eta), theta=_csv_node(args.theta)
    )
    if weight.keys() == {"eta"}:
        weight["theta"] = [0] * len(weight["eta"])
    return _given(
        params=_given(p=args.p, e=args.e, f=args.f),
        weight=weight,
        chi1=_char_node(args, "chi1"),
        chi2=_char_node(args, "chi2"),
        e_m=args.e_m,
        chi_cyclotomic=args.chi_cyclotomic or None,
    )


def _pair_problem_from_args(args) -> Problem:
    """The problem of ``--problem``, or else the one the flags spell; a flag
    beside ``--problem`` is rejected by the document path it spells."""
    doc = _flags_document(args)
    if args.problem:
        if doc:
            paths = [
                f".{key}.{sub}" if isinstance(node, dict) else f".{key}"
                for key, node in doc.items()
                for sub in (node if isinstance(node, dict) else [None])
            ]
            raise InvalidInput(f"flags given beside --problem: {', '.join(paths)}")
        import json

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
    problem = parse_problem(doc)
    if args.chi2_unramified and not is_unramified(problem.params, problem.chi2):
        raise InvalidInput("--chi2-unramified contradicts the chi2 exponents")
    return problem


# ---------------------------------------------------------------------------
# Single-instance commands
# ---------------------------------------------------------------------------


def _char_command(args, command: str) -> Tuple[dict, FieldParams, CharacterData]:
    """The report head of ``dims`` and ``basis``: the ``.chi`` node the flags
    spell, read as a problem document's character is."""
    params = FieldParams(args.p, args.e, args.f)
    node = _char_node(args, "chi", cyclotomic=args.chi_cyclotomic or None,
                      trivial=args.chi_trivial or None)
    chi = _parse_character(params, node, ".chi")
    return {**_report_head(command, params), "chi": _char_dict(params, chi)}, params, chi


def cmd_dims(args) -> Tuple[dict, int]:
    report, params, chi = _char_command(args, "dims")
    profile = jump_profile(params, chi)
    report.update(
        {
            "h1": profile.total,
            "jump_profile": [{"s": _frac(s), "dim": d} for s, d in profile.entries],
            "windows": [window_cardinality(params, chi, j) for j in range(params.e)],
            "status": "ok",
        }
    )
    return report, 0


def cmd_basis(args) -> Tuple[dict, int]:
    report, params, chi = _char_command(args, "basis")
    f_prime, f_dprime = niveau(params, chi.signature)
    report.update(
        {
            "n_values": _ints(n_values(params, chi.signature)),
            "niveau": f_prime,
            "w_prime": _ints(w_prime(params, chi)),
            "labels": [_label_dict(lbl) for lbl in basis_labels(params, chi)],
            "status": "ok",
        }
    )
    return report, 0


def _pair_command(args, command: str, fields) -> Tuple[dict, int]:
    """``profile``, ``lv`` and ``oracle``: one problem, ``fields(problem)``
    after the report head, and the lv_empty report when no shift subset
    exists (a success)."""
    problem = _pair_problem_from_args(args)
    report = _report_head(command, problem.params)
    try:
        body, code = fields(problem)
    except NoValidShift as exc:
        if command == "lv":
            body = {"detail": f"L_V empty: no labels ({exc})", "labels": [], "dimension": 0}
        else:
            body = {"detail": str(exc)}
        body["status"] = "lv_empty"
        code = 0
    report.update(body)
    return report, code


def _profile_payload(problem: Problem) -> Tuple[dict, object, CharacterData]:
    """The profile fields of a problem, with its profile and quotient character."""
    params = problem.params
    r, c1, c2, chi = _normalized(
        params, problem.weight, problem.chi1, problem.chi2, problem.chi_cyclotomic
    )
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
    return payload, profile, chi


def _profile_fields(problem: Problem) -> Tuple[dict, int]:
    payload, _, _ = _profile_payload(problem)
    return {**payload, "status": "ok"}, 0


def _lv_fields(problem: Problem) -> Tuple[dict, int]:
    result = l_v_ah(
        problem.params,
        problem.weight,
        problem.chi1,
        problem.chi2,
        e_m=problem.e_m,
        chi_cyclotomic=problem.chi_cyclotomic,
    )
    body = {
        "exceptional": result.exceptional,
        "labels": [_label_dict(lbl) for lbl in result.labels],
        "dimension": result.dimension,
        "e_m": str(result.e_m),
        "status": "ok",
    }
    if result.extra_degree is not None:
        body["extra_degree_index"] = result.extra_degree_index
        body["extra_degree"] = str(result.extra_degree)
    return body, 0


def _oracle_fields(problem: Problem) -> Tuple[dict, int]:
    params = problem.params
    payload, profile, chi = _profile_payload(problem)
    constructive = j_v_ah(params, profile, chi, problem.e_m)
    bruteforce = j_v_ah_bruteforce(params, profile, chi, problem.e_m)
    oracle = rederive_jvah(params, profile, chi, problem.e_m)
    agree = constructive == bruteforce == oracle
    body = {
        **payload,
        "j_constructive": _sorted_labels(constructive),
        "j_bruteforce": _sorted_labels(bruteforce),
        "j_oracle": _sorted_labels(oracle),
        "agree": agree,
        "status": "ok" if agree else "oracle_mismatch",
    }
    return body, 0 if agree else 1


def cmd_profile(args) -> Tuple[dict, int]:
    return _pair_command(args, "profile", _profile_fields)


def cmd_lv(args) -> Tuple[dict, int]:
    return _pair_command(args, "lv", _lv_fields)


def cmd_oracle(args) -> Tuple[dict, int]:
    return _pair_command(args, "oracle", _oracle_fields)


# ---------------------------------------------------------------------------
# Grid machinery shared by verify and sweep
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13)

# A grid point: p, e, f, the class of chi2 and the normalized weight r.
GridSpec = Tuple[int, int, int, int, Tuple[int, ...]]


def _grid_cells(p_max: int, e_max: int, f_max: int) -> List[Tuple[int, int, int]]:
    return [
        (p, e, f)
        for p in _PRIMES
        if p <= p_max
        for e in range(1, e_max + 1)
        for f in range(1, f_max + 1)
    ]


def _cell_size(cell: Tuple[int, int, int]) -> int:
    """The cell's grid points: p^f - 1 classes of chi2 times p^f tuples r."""
    p, _, f = cell
    return (p**f - 1) * p**f


def _cell_instances(cell: Tuple[int, int, int]) -> List[GridSpec]:
    return [_cell_spec(cell, index) for index in range(_cell_size(cell))]


def _cell_spec(cell: Tuple[int, int, int], index: int) -> GridSpec:
    """The index-th grid point of a cell: the chi2 class, then r with the
    base-p digits of the rest, most significant first, each plus 1."""
    p, e, f = cell
    chi2_class, rest = divmod(index, p**f)
    r = [0] * f
    for i in range(f - 1, -1, -1):
        rest, digit = divmod(rest, p)
        r[i] = digit + 1
    return (p, e, f, chi2_class, tuple(r))


def _grid(args) -> Tuple[List[Tuple[int, int, int]], int, Callable[..., Iterator[GridSpec]]]:
    """The cells of --p-max/--e-max/--f-max, the number of grid points kept,
    and a walk of the kept points: every stride-th point of the whole grid
    beyond --max-instances (0: no limit).

    The cell sizes give the stride and the count, and no point is built
    until a walk is read, so memory stays flat in the size of the grid.
    ``walk(every)`` starts a new walk of the kept points 0, every,
    2*every, ...; the k-th kept point is the point at index k*stride of the
    whole grid, listed cell by cell.  A bound that selects no cell, or a
    --p-max past the grid's largest prime, is invalid input, raised here
    and not when a walk is read.
    """
    for flag, value, low in (
        ("--max-instances", args.max_instances, 0),
        ("--p-max", args.p_max, 2),
        ("--e-max", args.e_max, 1),
        ("--f-max", args.f_max, 1),
    ):
        if value < low:
            raise InvalidInput(f"{flag} must be >= {low}, got {value}")
    if args.p_max > _PRIMES[-1]:
        raise InvalidInput(f"--p-max must be <= {_PRIMES[-1]}, got {args.p_max}")
    cells = _grid_cells(args.p_max, args.e_max, args.f_max)
    total = sum(map(_cell_size, cells))
    stride = 1
    if args.max_instances and total > args.max_instances:
        stride = -(-total // args.max_instances)

    def walk(every: int = 1) -> Iterator[GridSpec]:
        step = stride * every
        start = 0  # the index of the cell's first point in the whole grid
        for cell in cells:
            size = _cell_size(cell)
            for k in range(-start % step, size, step):
                yield _cell_spec(cell, k)
            start += size

    return cells, -(-total // stride), walk


@lru_cache(maxsize=1)
def _cell_params(p: int, e: int, f: int) -> FieldParams:
    """The FieldParams of a grid cell, built once per run of its points,
    not once per point: a walk lists the grid cell by cell, so one entry
    holds the cell in hand."""
    return FieldParams(p, e, f)


def _grid_pair(
    spec: GridSpec, unram: UnramifiedPart = UnramifiedPart()
) -> Tuple[FieldParams, CharacterData, CharacterData]:
    """Params and the character pair of a grid point, chi1 carrying ``unram``.

    The shift vectors keep chi2's class, so t lies in it, and
    s - t = (r + e - 1) - 2t puts chi1 = (chi1/chi2) * chi2 in the class of
    r + e - 1 less the class of chi2.  The shift subset depends on chi2 and
    r alone, so it is searched before chi1 is built: a point without one
    raises NoValidShift (or MinimalityAmbiguous), as ``ts_profile`` would.
    """
    p, e, f, chi2_class, r = spec
    params = _cell_params(p, e, f)
    zeros = (0,) * (f - 1)
    chi2 = character(params, (chi2_class,) + zeros)
    _least_shift(params, r, reduced_exponents(params, chi2))  # both in range
    chi1_class = exponent_class(params, tuple(ri + e - 1 for ri in r)) - chi2_class
    return params, character(params, (chi1_class,) + zeros, unram=unram), chi2


def _grid_instance(spec: GridSpec, unram: UnramifiedPart = UnramifiedPart()):
    """(params, chi1, chi2, chi1/chi2, profile); NoValidShift without a shift subset."""
    params, chi1, chi2 = _grid_pair(spec, unram)
    profile = ts_profile(params, spec[4], chi1, chi2)
    return params, chi1, chi2, char_quotient(params, chi1, chi2), profile


def _worker_count(jobs: int) -> int:
    """The --jobs value clamped to the CPU count; below 1 is invalid input."""
    if jobs < 1:
        raise InvalidInput(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _mapped(jobs: int, *maps) -> Iterator:
    """The results of each (function, items, chunksize) in order: in this
    process for one worker, else in one pool shared by all the maps.  The
    items may be a generator; neither path makes a list of them."""
    if jobs == 1:
        for function, items, _ in maps:
            yield from map(function, items)
        return
    from multiprocessing import Pool

    with Pool(jobs) as pool:
        for function, items, chunksize in maps:
            yield from pool.imap(function, items, chunksize)


def _joined(values) -> str:
    return "|".join(map(str, values))


def _sweep_worker(spec: GridSpec) -> Tuple[str, ...]:
    p, e, f, _, r = spec
    try:
        params, _, _, chi, profile = _grid_instance(spec)
    except NoValidShift:
        return (str(p), str(e), str(f), "", _joined(r), "", "", "", "0", "0", "1")
    constructive = j_v_ah(params, profile, chi)
    bruteforce = j_v_ah_bruteforce(params, profile, chi)
    total = profile.interval_total()
    ok = constructive == bruteforce and len(constructive) == total
    return (
        str(p), str(e), str(f), _joined(chi.signature.a), _joined(r),
        _joined(profile.t), _joined(profile.s), _joined(profile.xi),
        str(len(constructive)), str(total), "1" if ok else "0",
    )


_SWEEP_HEADER = ("p", "e", "f", "chi_sig", "r", "t", "s", "xi", "|J|", "sum|I|", "ok")


def cmd_sweep(args) -> Tuple[None, int]:
    import csv

    jobs = _worker_count(args.jobs)
    _, _, walk = _grid(args)
    _check_out(args.out)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_SWEEP_HEADER)
    ok = True
    for row in _mapped(jobs, (_sweep_worker, walk(), 64)):
        writer.writerow(row)
        ok &= row[-1] == "1"
    _write(buffer.getvalue(), args.out)
    return None, 0 if ok else 1


# ---------------------------------------------------------------------------
# The verification suite
# ---------------------------------------------------------------------------

# Every verify property, in report order.  oracle_agreement is checked and
# reported only with --with-oracle; unexpected_error collects the errors of
# every check.
_PROPERTIES = (
    "dimension_sum", "jump_size", "window_count", "w_prime_cardinality",
    "basis_cardinality", "profile_reflection", "profile_membership",
    "xi_congruence", "j_min_least", "constructive_vs_bruteforce",
    "j_size_equals_interval_total", "labels_within_basis",
    "e_m_independence", "lv_alpha_labels", "twist_invariance",
    "oracle_agreement", "unexpected_error",
)


def _checked(where: Callable[[], str], check, *args) -> List[Tuple[str, str]]:
    """(property, where()) for each property that ``check(*args)`` names, once.

    ``where`` formats the instance, and runs only when it fails.  A grid
    point with no shift subset has an empty subspace and nothing to check;
    any other package error is an unexpected_error.
    """
    try:
        names = dict.fromkeys(check(*args))
    except NoValidShift:
        return []
    except SerreWeightsError as exc:
        return [("unexpected_error", f"{where()}: {exc!r}")]
    if not names:
        return []
    text = where()
    return [(name, text) for name in names]


def _where(spec: GridSpec) -> str:
    p, e, f, chi2_class, r = spec
    return f"p={p} e={e} f={f} chi2_class={chi2_class} r={r}"


def _verify_character_cell(cell: Tuple[int, int, int]) -> List[Tuple[str, str]]:
    """Character-level properties over every signature class of one cell."""
    p, e, f = cell
    params = _cell_params(p, e, f)
    cyclotomic = cyclotomic_inertia_signature(params)
    failures = []
    for cls in range(params.tame_order):
        chis = [character(params, (cls,) + (0,) * (f - 1))]
        if p > 2 and chis[0].signature == cyclotomic:
            chis.append(character(params, (cls,) + (0,) * (f - 1), cyclotomic=True))
        for chi in chis:
            failures += _checked(
                lambda: f"p={p} e={e} f={f} class={cls} cyc={chi.declared_cyclotomic}",
                _character_checks, params, chi,
            )
    return failures


def _character_checks(params: FieldParams, chi: CharacterData) -> Iterator[str]:
    """The jump levels are read as integer numerators over p^f - 1."""
    e, f = params.e, params.f
    levels, total = _jump_levels(params, chi)
    h1 = h1_dimension(params, chi)
    if total != h1:
        yield "dimension_sum"
    f_prime, f_dprime = niveau(params, chi.signature)
    interior_end = len(levels) - chi.declared_cyclotomic
    if any(d != f_dprime for _, d in levels[chi.declared_trivial:interior_end]):
        yield "jump_size"
    if any(window_cardinality(params, chi, j) != f for j in range(e)):
        yield "window_count"
    if len(w_prime(params, chi)) != e * f_prime:
        yield "w_prime_cardinality"
    if len(basis_labels(params, chi)) != h1:
        yield "basis_cardinality"


def _verify_pair_instance(spec: GridSpec) -> List[Tuple[str, str]]:
    return _checked(lambda: _where(spec), _pair_checks, spec)


def _pair_checks(spec: GridSpec) -> Iterator[str]:
    """Profile and label-set properties for one (r, chi2) grid point.

    Each route runs once at the default e_M and its labels serve every
    property that reads them.  ``j_v_ah`` and ``j_v_ah_bruteforce`` take
    e_M = None to mean e_M = p^f - 1, so the default runs are also the d = 1
    case of e_m_independence, which fails there exactly when the two routes
    disagree; the e_M loop runs the divisors d >= 2 only.
    """
    p, e, f, _, r = spec
    params, chi1, chi2, chi, profile = _grid_instance(spec)
    q1 = params.tame_order
    n = n_values(params, chi.signature)
    for i in range(f):
        if profile.s[i] + profile.t[i] != r[i] + e - 1:
            yield "profile_reflection"
        if not (_admissible(e, r[i], profile.t[i]) and _admissible(e, r[i], profile.s[i])):
            yield "profile_membership"
        if (profile.xi[i] - n[i]) % q1:
            yield "xi_congruence"
    # Every subset J of the shift vectors, in Gray-code order: each step
    # adds or removes one v_i in place, so the walk holds O(f) values.
    # J and J_min are int masks, bit i for v_i.
    shifted = list(reduced_exponents(params, chi2))
    j_min = subset = 0
    for i in profile.j_min:
        j_min |= 1 << i
    for k in range(1 << f):
        if k:
            bit = k & -k  # the bit that flips at step k
            i = bit.bit_length() - 1
            subset ^= bit
            if subset & bit:
                shifted[i] -= 1
                shifted[(i + 1) % f] += p
            else:
                shifted[i] += 1
                shifted[(i + 1) % f] -= p
        if j_min & subset != j_min:
            for ri, x in zip(r, shifted):
                if not (0 <= x < e or ri <= x < ri + e):  # _admissible
                    break
            else:
                yield "j_min_least"
    constructive = j_v_ah(params, profile, chi)
    bruteforce = j_v_ah_bruteforce(params, profile, chi)
    if bruteforce != constructive:
        yield "constructive_vs_bruteforce"
    if len(constructive) != profile.interval_total():
        yield "j_size_equals_interval_total"
    if not constructive <= set(basis_labels(params, chi)):
        yield "labels_within_basis"
    if bruteforce != constructive:  # e_M = p^f - 1, the default runs above
        yield "e_m_independence"
    # The other admissible e_M: d = (p^f - 1)/e_M >= 2 divides every n_i
    # (validate_e_m).
    gcd_n = gcd(q1, *n)
    for e_m in (q1 // d for d in range(2, gcd_n + 1) if gcd_n % d == 0):
        if (
            j_v_ah(params, profile, chi, e_m) != constructive
            or j_v_ah_bruteforce(params, profile, chi, e_m) != constructive
        ):
            yield "e_m_independence"
    result = l_v_ah(params, weight_from_r(params, r), chi1, chi2)
    alphas = {label for label in result.labels if label.is_alpha}
    if not result.exceptional and alphas != constructive:
        yield "lv_alpha_labels"


# The twist sample: every 17th kept grid point.
_TWIST_EVERY = 17


def _twist_job(index: int, spec: GridSpec) -> Tuple[GridSpec, Tuple[int, ...]]:
    """The index-th kept point, twisted by theta_i = (index + i) mod (p - 1)."""
    p, _, f, _, _ = spec
    return spec, tuple((index + i) % (p - 1) if p > 2 else 0 for i in range(f))


def _verify_twist_instance(job: Tuple[GridSpec, Tuple[int, ...]]) -> List[Tuple[str, str]]:
    spec, theta = job
    return _checked(
        lambda: f"{_where(spec)} theta={theta}", _twist_checks, spec, theta
    )


def _twist_checks(spec: GridSpec, theta: Tuple[int, ...]) -> Iterator[str]:
    """l_v_ah of a theta-twisted instance equals l_v_ah of its normalization.

    The grid pair is consistent at theta = 0, so the twisted instance must
    carry characters with the theta class added back; twist_normalize
    inside l_v_ah then lands exactly on the plain instance.  A point with
    no shift subset raises NoValidShift in ``_grid_pair``, before either
    call; neither declares a cyclotomic quotient, so neither could have
    answered there.
    """
    params, c1, c2 = _grid_pair(spec)
    r = spec[4]
    twist_cls = exponent_class(params, theta)
    zeros = (0,) * (params.f - 1)
    chi1 = character(params, (signature_class(params, c1.signature) + twist_cls,) + zeros)
    chi2 = character(params, (signature_class(params, c2.signature) + twist_cls,) + zeros)
    weight = SerreWeight(tuple(ri - 1 + th for ri, th in zip(r, theta)), tuple(theta))
    twisted = l_v_ah(params, weight, chi1, chi2)
    if twisted.labels != l_v_ah(params, weight_from_r(params, r), c1, c2).labels:
        yield "twist_invariance"


_ORACLE_MUS = {
    2: (UnramifiedPart(1, 0), UnramifiedPart(2, 1)),
    3: (UnramifiedPart(1, 0), UnramifiedPart(1, 1), UnramifiedPart(2, 2)),
}


def _verify_oracle_instance(
    job: Tuple[GridSpec, UnramifiedPart]
) -> List[Tuple[str, str]]:
    spec, mu = job
    return _checked(
        lambda: f"{_where(spec)} mu={mu.order_field_degree}:{mu.dlog}",
        _oracle_checks, spec, mu,
    )


def _oracle_checks(spec: GridSpec, mu: UnramifiedPart) -> Iterator[str]:
    """The oracle against the constructive route, chi1 carrying ``mu``."""
    params, _, _, chi, profile = _grid_instance(spec, mu)
    if rederive_jvah(params, profile, chi) != j_v_ah(params, profile, chi):
        yield "oracle_agreement"


def cmd_verify(args) -> Tuple[dict, int]:
    jobs = _worker_count(args.jobs)
    cells, kept, walk = _grid(args)
    _check_out(args.out)
    oracle_jobs = []
    if args.with_oracle:
        for cell in _grid_cells(min(args.p_max, 3), min(args.e_max, 2), min(args.f_max, 2)):
            for spec in _cell_instances(cell):
                oracle_jobs += [(spec, mu) for mu in _ORACLE_MUS[cell[0]]]
    twist_jobs = map(_twist_job, count(0, _TWIST_EVERY), walk(_TWIST_EVERY))
    names = [n for n in _PROPERTIES if args.with_oracle or n != "oracle_agreement"]
    # A failure count and the first counterexample per property: nothing
    # kept grows with the grid.
    failures = dict.fromkeys(names, 0)
    first = {}
    for found in _mapped(
        jobs,
        (_verify_character_cell, cells, 1),
        (_verify_pair_instance, walk(), 64),
        (_verify_twist_instance, twist_jobs, 16),
        (_verify_oracle_instance, oracle_jobs, 2),
    ):
        for name, where in found:
            failures[name] += 1
            first.setdefault(name, where)
    failed = bool(first)
    report = {
        "command": "verify",
        "grid": {
            "p_max": args.p_max,
            "e_max": args.e_max,
            "f_max": args.f_max,
            "with_oracle": bool(args.with_oracle),
        },
        "pair_instances": kept,
        "twist_instances": -(-kept // _TWIST_EVERY),
        "oracle_instances": len(oracle_jobs),
        "properties": [
            {
                "name": name,
                "failures": failures[name],
                "first_counterexample": first.get(name),
            }
            for name in names
        ],
        "status": "failed" if failed else "ok",
    }
    return report, 1 if failed else 0


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", help="write the report to this path")


def _add_char_flags(parser: argparse.ArgumentParser) -> None:
    for flag in ("--p", "--e", "--f"):
        parser.add_argument(flag, type=_decimal, required=True)
    parser.add_argument("--chi-exps", help="comma-separated inertial exponents")
    parser.add_argument("--chi-unram", help="unramified part as DEGREE:DLOG")
    parser.add_argument("--chi-trivial", action="store_true",
                        help="assert the character is trivial")
    parser.add_argument("--chi-cyclotomic", action="store_true",
                        help="declare the character cyclotomic")
    _add_output_flags(parser)


def _add_pair_flags(parser: argparse.ArgumentParser) -> None:
    for flag in ("--p", "--e", "--f"):
        parser.add_argument(flag, type=_decimal)
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
    parser.add_argument("--e-m", type=_decimal, dest="e_m",
                        help="auxiliary tame degree, defaults to p^f - 1")
    parser.add_argument("--problem", help="JSON problem document ('-' for stdin)")
    _add_output_flags(parser)


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p-max", type=_decimal, default=3)
    parser.add_argument("--e-max", type=_decimal, default=2)
    parser.add_argument("--f-max", type=_decimal, default=2)
    parser.add_argument("--max-instances", type=_decimal, default=0,
                        help="stride-subsample beyond this many instances")
    parser.add_argument("--jobs", type=_decimal, default=1)


def _add_verify_flags(parser: argparse.ArgumentParser) -> None:
    _add_grid_flags(parser)
    parser.add_argument("--with-oracle", action="store_true")
    _add_output_flags(parser)


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    _add_grid_flags(parser)
    parser.add_argument("--out", help="write CSV here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call.  A flag set that several commands take
    (the character flags, the pair flags) is built once, as a parent
    parser whose actions those commands' subparsers share; `verify` and
    `sweep` add their own flags.  The parser is not cached,
    so no parse state can carry from one call to the next.

    argparse makes a throwaway formatter for every flag added, and its
    default formatter reads the terminal size each time (48 reads per
    build).  So the width is read once per build, and every parser of the
    build formats at it: the same width argparse's default computes, so
    help, usage and error text are unchanged, and a later build reads the
    terminal again.

    Caching the parser, or building only the named subparser, would cut
    more, but waits on the benchmark harness (ROADMAP item 2): it keeps
    every report (~0.76 KB a call), so the named-subparser step's ~3.2x
    the calls raised `query_stream`'s peak RSS by 46%, past its 10% bound."""
    import argparse
    import functools
    import shutil

    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = argparse.ArgumentParser(
        prog="serreweights",
        description="Explicit basis labels and distinguished subspaces for "
        "tame two-dimensional mod-p extensions, with a series oracle.",
        formatter_class=formatter,
    )
    shared = {}
    for add_flags in (_add_char_flags, _add_pair_flags):
        shared[add_flags] = argparse.ArgumentParser(
            add_help=False, formatter_class=formatter
        )
        add_flags(shared[add_flags])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, add_flags, help_text in (
        ("dims", cmd_dims, _add_char_flags, "jump filtration dimensions"),
        ("basis", cmd_basis, _add_char_flags, "index sets and basis labels"),
        ("profile", cmd_profile, _add_pair_flags, "shift profile (t, s, I, xi)"),
        ("lv", cmd_lv, _add_pair_flags, "distinguished subspace labels"),
        ("oracle", cmd_oracle, _add_pair_flags, "residue-pairing re-derivation"),
        ("verify", cmd_verify, _add_verify_flags, "run the property suite on a grid"),
        ("sweep", cmd_sweep, _add_sweep_flags, "CSV sweep over a parameter grid"),
    ):
        if add_flags in shared:
            command = sub.add_parser(
                name, help=help_text, formatter_class=formatter,
                parents=[shared[add_flags]],
            )
        else:
            command = sub.add_parser(name, help=help_text, formatter_class=formatter)
            add_flags(command)
        command.set_defaults(func=func)
    return parser


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        # An explicit "--" value (--r=--) is rejected before parsing:
        # argparse up to 3.12 drops it and leaves [], while 3.13 passes
        # "--" on to the flag's type, so neither would name the flag alike.
        for token in argv:
            if token == "--":  # what follows is not a flag
                break
            flag, sep, value = token.partition("=")
            if sep and value == "--" and flag.startswith("--"):
                parser.error(f"argument {flag}: expected one argument")
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
