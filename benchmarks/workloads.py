"""The three benchmark workloads: seeded inputs and a check for every output.

Inputs come from the package's public API (``character``,
``reduced_exponents``, ``shift_vector``) and from this file's own shift
search, never from the CLI's private grid helpers, so a rewrite of those
cannot change what is measured.  Every operation is one ``run_command``
call whose JSON report is checked here.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from serreweights import FieldParams, character, reduced_exponents, shift_vector

Check = Callable[[int, dict], bool]


@dataclass
class Op:
    """One ``run_command`` call and the check its report must pass."""

    argv: List[str]
    check: Check
    units: int = 1  # operations the call stands for: pair instances for verify
    fresh: bool = False  # run in a forked child, so every cache starts cold


@dataclass
class Workload:
    name: str
    ops: List[Op]
    prefix: int  # always completed, digested, and the whole of a traced pass
    granularity: int  # the timed loop may stop only after a multiple of this

    def prefix_only(self) -> "Workload":
        """The prefix as a workload of its own: fixed work for traced passes."""
        ops = self.ops[: self.prefix]
        return Workload(self.name, ops, prefix=len(ops), granularity=len(ops))


def passes(op: Op, code: int, text: str) -> bool:
    """Whether an operation succeeded: exit code, JSON report and check."""
    try:
        return op.check(code, json.loads(text))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


# ---------------------------------------------------------------------------
# Consistent character pairs, from the definition of the shift profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pair:
    """A weight r and characters (chi1, chi2); chi1 is forced by the profile
    when an admissible shift exists, and arbitrary otherwise."""

    params: FieldParams
    r: Tuple[int, ...]
    chi1: Tuple[int, ...]  # digit signatures, as passed to the CLI
    chi2: Tuple[int, ...]
    j_min: Optional[Tuple[int, ...]]  # None: no admissible shift, L_V is empty
    t: Tuple[int, ...] = ()
    s: Tuple[int, ...] = ()
    labels: int = 0  # sum of |I_i|, the size of the label subset

    def argv(self, command: str) -> List[str]:
        p = self.params
        return [
            command, "--p", str(p.p), "--e", str(p.e), "--f", str(p.f),
            "--r=" + _csv(self.r),
            "--chi1-exps=" + _csv(self.chi1),
            "--chi2-exps=" + _csv(self.chi2),
        ]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _signature(params: FieldParams, exps) -> Tuple[int, ...]:
    return character(params, tuple(exps)).signature.a


def least_shift(params: FieldParams, r, m) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """(mask, t) for the containment-least admissible shift subset, by trying
    all 2^f subsets; None when no subset is admissible.

    Raises ValueError when the admissible subsets have no least element.
    """
    e, f = params.e, params.f
    vectors = [shift_vector(params, i) for i in range(f)]
    valid = {}
    for mask in range(1 << f):
        t = list(m)
        for i in range(f):
            if mask >> i & 1:
                t = [a + b for a, b in zip(t, vectors[i])]
        if all(0 <= x < e or r[i] <= x < r[i] + e for i, x in enumerate(t)):
            valid[mask] = tuple(t)
    if not valid:
        return None
    least = ~0
    for mask in valid:
        least &= mask
    if least not in valid:
        raise ValueError(f"no least shift subset for r={r}, m={m}")
    return least, valid[least]


def make_pair(params: FieldParams, chi2_class: int, r) -> Optional[Pair]:
    """The consistent pair for (chi2, r), or None when no shift is admissible."""
    f, e = params.f, params.e
    chi2_exps = (chi2_class,) + (0,) * (f - 1)
    chi2 = _signature(params, chi2_exps)
    found = least_shift(params, r, reduced_exponents(params, character(params, chi2)))
    if found is None:
        return None
    mask, t = found
    s = tuple(ri + e - 1 - ti for ri, ti in zip(r, t))
    chi1 = _signature(params, (c + si - ti for c, si, ti in zip(chi2_exps, s, t)))
    labels = sum(si if ti >= ri else 1 + max(0, si - ri) for ri, ti, si in zip(r, t, s))
    j_min = tuple(i for i in range(f) if mask >> i & 1)
    return Pair(params, tuple(r), chi1, chi2, j_min, t, s, labels)


def _label_set(labels) -> List[Tuple[str, str, int]]:
    return sorted((lb["kind"], lb.get("m", ""), lb.get("k", 0)) for lb in labels)


# ---------------------------------------------------------------------------
# verify_grid: the acceptance grid through the CLI verifier
# ---------------------------------------------------------------------------

VERIFY_ARGV = [
    "verify", "--p-max", "5", "--e-max", "3", "--f-max", "3",
    "--with-oracle", "--jobs", "1",
]
VERIFY_MAX_INSTANCES = 10000
# p in {2, 3}, e and f in {1, 2}, every chi2 class and r, times the verifier's
# unramified parts: two for p = 2, three for p = 3.
VERIFY_ORACLE_JOBS = 524


def grid_pairs(primes, e_max: int, f_max: int) -> int:
    """|G|: every chi2 class (p^f - 1 of them) times every r in [1, p]^f."""
    return sum(
        (p**f - 1) * p**f * e_max for p in primes for f in range(1, f_max + 1)
    )


def verify_grid(seed: int, max_instances: int = VERIFY_MAX_INSTANCES) -> Workload:
    """The grid is fixed; ``seed`` is recorded but cannot move a stride sample."""
    total = grid_pairs((2, 3, 5), 3, 3)
    stride = max(1, -(-total // max_instances))
    pairs = -(-total // stride)

    def check(code: int, rep: dict) -> bool:
        return (
            code == 0
            and rep["status"] == "ok"
            and all(prop["failures"] == 0 for prop in rep["properties"])
            and rep["pair_instances"] == pairs
            and rep["twist_instances"] == -(-pairs // 17)
            and rep["oracle_instances"] == VERIFY_ORACLE_JOBS
        )

    argv = VERIFY_ARGV + ["--max-instances", str(max_instances)]
    return Workload("verify_grid", [Op(argv, check, units=pairs)], prefix=1, granularity=1)


# ---------------------------------------------------------------------------
# query_stream: one interactive user, distinct characters, no reuse
# ---------------------------------------------------------------------------

QUERY_SHAPES = [
    (p, e, f) for p in (7, 11, 13, 17, 19, 23) for e in (1, 2, 3) for f in (1, 2, 3)
] + [(p, e, f) for p in (2, 3, 5) for e in (1, 2, 3) for f in (4, 5)]


def _dims_check(e: int, f: int, h1: int) -> Check:
    def check(code: int, rep: dict) -> bool:
        return (
            code == 0
            and rep["status"] == "ok"
            and rep["h1"] == h1
            and sum(j["dim"] for j in rep["jump_profile"]) == h1
            and rep["windows"] == [f] * e
        )

    return check


def _basis_check(e: int, h1: int) -> Check:
    def check(code: int, rep: dict) -> bool:
        return (
            code == 0
            and rep["status"] == "ok"
            and len(rep["labels"]) == h1
            and len(rep["w_prime"]) == e * rep["niveau"]
        )

    return check


def _profile_check(pair: Pair) -> Check:
    def check(code: int, rep: dict) -> bool:
        if code != 0:
            return False
        if pair.j_min is None:
            return rep["status"] == "lv_empty"
        return (
            rep["status"] == "ok"
            and rep["j_min"] == list(pair.j_min)
            and rep["t"] == list(pair.t)
            and rep["s"] == list(pair.s)
            and sum(len(i) for i in rep["intervals"]) == pair.labels
        )

    return check


def _lv_check(pair: Pair) -> Check:
    def check(code: int, rep: dict) -> bool:
        if code != 0:
            return False
        if pair.j_min is None:
            return (
                rep["status"] == "lv_empty" and rep["labels"] == [] and rep["dimension"] == 0
            )
        alphas = [lb for lb in rep["labels"] if lb["kind"] == "alpha"]
        return (
            rep["status"] == "ok"
            and rep["dimension"] == len(rep["labels"])
            and (rep["exceptional"] or len(alphas) == pair.labels)
        )

    return check


def query_stream(seed: int, cycles: int = 16, shapes=QUERY_SHAPES) -> Workload:
    """Cycles over every shape in a fixed order with fresh seeded characters:
    dims and basis of one character, then profile and lv of one pair."""
    rng = random.Random(seed)
    ops: List[Op] = []
    for _ in range(cycles):
        for p, e, f in shapes:
            params = FieldParams(p, e, f)
            zeros = (0,) * (f - 1)
            chi = character(params, (rng.randrange(params.tame_order),) + zeros)
            h1 = e * f + chi.declared_trivial + chi.declared_cyclotomic
            flags = ["--p", str(p), "--e", str(e), "--f", str(f),
                     "--chi-exps=" + _csv(chi.signature.a)]
            ops.append(Op(["dims"] + flags, _dims_check(e, f, h1)))
            ops.append(Op(["basis"] + flags, _basis_check(e, h1)))
            while True:
                r = tuple(rng.randint(1, p) for _ in range(f))
                chi2_class = rng.randrange(params.tame_order)
                try:
                    pair = make_pair(params, chi2_class, r)
                    break
                except ValueError:  # no least shift subset: the CLI reports an error
                    continue
            if pair is None:  # any chi1 will do: L_V is empty for every one
                chi1 = _signature(params, (rng.randrange(params.tame_order),) + zeros)
                chi2 = _signature(params, (chi2_class,) + zeros)
                pair = Pair(params, r, chi1, chi2, None)
            ops.append(Op(pair.argv("profile"), _profile_check(pair)))
            ops.append(Op(pair.argv("lv"), _lv_check(pair)))
    # Whole cycles only: query cost rises with p along a cycle, so a run cut
    # mid-cycle would move throughput and p90 by a few percent.
    per_cycle = 4 * len(shapes)
    return Workload("query_stream", ops, prefix=per_cycle, granularity=per_cycle)


# ---------------------------------------------------------------------------
# oracle_large: the residue-pairing oracle over fields of 2^18 and 3^12
# ---------------------------------------------------------------------------

# (p, e, unramified part of chi1); f = 3 throughout.  The part 2:1 has order 3
# at p = 2 and 2:2 has order 4 at p = 3, so the coefficient fields have
# degree lcm(f * order, 2): 18 and 12.
ORACLE_CELLS = ((2, 1, "2:1"), (2, 2, "2:1"), (3, 1, "2:2"), (3, 2, "2:2"))
ORACLE_PER_CELL = 4


def cell_pairs(params: FieldParams) -> List[Pair]:
    """Every pair of the cell with an admissible shift, in (chi2 class, r) order."""
    out = []
    for cls in range(params.tame_order):
        for r in itertools.product(range(1, params.p + 1), repeat=params.f):
            try:
                pair = make_pair(params, cls, r)
            except ValueError:
                continue
            if pair is not None:
                out.append(pair)
    return out


def _oracle_check(pair: Pair) -> Check:
    def check(code: int, rep: dict) -> bool:
        oracle = _label_set(rep["j_oracle"])
        return (
            code == 0
            and rep["status"] == "ok"
            and rep["agree"] is True
            and oracle == _label_set(rep["j_constructive"])
            and oracle == _label_set(rep["j_bruteforce"])
            and len(oracle) == pair.labels
            and rep["j_min"] == list(pair.j_min)
        )

    return check


def oracle_large(seed: int, per_cell: int = ORACLE_PER_CELL) -> Workload:
    """A fixed, evenly spaced sample of each cell, in seeded order.

    Cold per-instance cost ranges over a factor of ten inside one cell, so a
    random sample of the few instances a run can afford would move the
    throughput between seeds by more than any useful bound; the seed orders
    the instances instead.  Each runs in a fresh fork, so order cannot matter
    through the caches either.
    """
    ops = []
    for p, e, unram in ORACLE_CELLS:
        population = cell_pairs(FieldParams(p, e, 3))
        for j in range(per_cell):
            pair = population[(2 * j + 1) * len(population) // (2 * per_cell)]
            argv = pair.argv("oracle") + ["--chi1-unram", unram]
            ops.append(Op(argv, _oracle_check(pair), fresh=True))
    random.Random(seed).shuffle(ops)
    return Workload("oracle_large", ops, prefix=len(ops), granularity=len(ops))


WORKLOADS = {
    "verify_grid": verify_grid,
    "query_stream": query_stream,
    "oracle_large": oracle_large,
}
