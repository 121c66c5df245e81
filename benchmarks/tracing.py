"""Spans and counters around every public function of each serreweights layer.

The tracer wraps functions from outside the package.  Modules import each
other with ``from .x import y``, so a wrapper is bound into every module
namespace that holds the original object, not only into the defining
module; ``FiniteField`` methods are wrapped on the class.  ``uninstall``
puts every original back, and ``leftover_wrappers`` proves that it did.

Each call records one span: the function, its parent span, start and end.
Spans stay in compact arrays until the run ends.  A layer's self time is
the sum over its spans of the span's duration minus the durations of its
direct children, so nested calls are never counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

LAYERS = (
    "tame_chars",
    "cohomology",
    "weight_lattice",
    "serre_basis",
    "series_oracle",
    "_gf",
    "io_cli",
)

_MARK = "_serreweights_bench_original"


def package_namespaces() -> List[object]:
    """Every loaded serreweights module, plus the FiniteField class."""
    mods = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "serreweights"]
    gf = importlib.import_module("serreweights._gf")
    return mods + [gf.FiniteField]


def public_functions() -> List[Tuple[str, object, str, Callable]]:
    """(layer, owner, name, function) for each layer's public functions.

    A function is public when its name has no leading underscore and the
    layer module defines it (classes and re-imported names are skipped).
    ``FiniteField``'s public methods belong to the ``_gf`` layer.
    """
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"serreweights.{layer}")
        for name, value in vars(mod).items():
            if name.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            found.append((layer, mod, name, value))
    ff = importlib.import_module("serreweights._gf").FiniteField
    for name, value in vars(ff).items():
        if not name.startswith("_") and inspect.isfunction(value):
            found.append(("_gf", ff, name, value))
    return found


class Patcher:
    """Rebinds functions in every namespace that holds them, and restores."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, original: Callable, wrapper: Callable) -> None:
        setattr(wrapper, _MARK, original)
        places = [owner] if isinstance(owner, type) else package_namespaces()
        for ns in places:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._saved.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def restore(self) -> None:
        for ns, key, original in reversed(self._saved):
            setattr(ns, key, original)
        self._saved.clear()

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def leftover_wrappers() -> List[str]:
    """Names in the package that still hold a benchmark wrapper."""
    return [
        f"{getattr(ns, '__name__', ns)}.{key}"
        for ns in package_namespaces()
        for key, value in vars(ns).items()
        if hasattr(value, _MARK)
    ]


class Tracer:
    """Span recorder and per-layer counters for one traced pass."""

    def __init__(self) -> None:
        self.labels: List[str] = []  # "layer.function" per function index
        self.layer_of: List[str] = []
        self.fn_index: Dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Dict[str, float] = {}
        self._stack = [-1]
        self._seen_fields: set = set()
        self._ah_cache = None
        self._ah_start = (0, 0)
        self.patcher = Patcher()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        observers = {
            "cohomology.jump_profile": self._on_jump_profile,
            "weight_lattice.candidate_set": self._on_candidate_set,
            "serre_basis.w_prime": self._on_w_prime,
            "series_oracle.residue_trace_pairing": self._on_pairing,
            "_gf.mul": self._on_mul,
            "_gf.field": self._on_field,
        }
        for layer, owner, name, fn in public_functions():
            label = f"{layer}.{name}"
            index = len(self.labels)
            self.labels.append(label)
            self.layer_of.append(layer)
            self.fn_index[label] = index
            if label == "series_oracle.artin_hasse_mod_p":
                self._ah_cache = fn
            wrapper = self._wrap(index, fn, observers.get(label))
            self.patcher.replace(owner, name, fn, wrapper)
        self._ah_start = self._ah_counts()

    def uninstall(self) -> None:
        self._add_ah_delta(self.counters)
        self.patcher.restore()

    def _wrap(self, index: int, fn: Callable, observe) -> Callable:
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            starts[span] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result, ends[span] - starts[span])
            return result

        return wrapper

    # -- counters read from arguments and results ------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _on_jump_profile(self, args, result, _dt) -> None:
        self._add("jumps", len(result.entries))

    def _on_candidate_set(self, args, result, _dt) -> None:
        params, weight_r = args[0], args[1]
        tested = 1
        for ri in weight_r:
            tested *= len(set(range(params.e)) | set(range(ri, ri + params.e)))
        self._add("candidates_tested", tested)
        self._add("candidates_returned", len(result))

    def _on_w_prime(self, args, result, _dt) -> None:
        self._add("w_prime_size", len(result))

    def _on_pairing(self, args, result, _dt) -> None:
        self._add("pairings_nonzero", 1 if any(result) else 0)

    def _on_mul(self, args, result, _dt) -> None:
        self._add("coeff_mults", args[0].r ** 2)

    def _on_field(self, args, result, dt) -> None:
        if id(result) not in self._seen_fields:
            self._seen_fields.add(id(result))
            self._add("field_build_s", dt)

    def _ah_counts(self) -> Tuple[int, int]:
        info = getattr(self._ah_cache, "cache_info", None)
        if info is None:
            return (0, 0)
        snapshot = info()
        return (snapshot.hits, snapshot.misses)

    def _add_ah_delta(self, counters: Dict[str, float]) -> None:
        """Artin-Hasse cache hits and misses since install or reset."""
        hits, misses = self._ah_counts()
        counters["ah_hits"] = counters.get("ah_hits", 0) + hits - self._ah_start[0]
        counters["ah_misses"] = counters.get("ah_misses", 0) + misses - self._ah_start[1]

    # -- forked children --------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far; a forked child starts here."""
        for arr in (self.names, self.parents, self.starts, self.ends):
            del arr[:]
        del self._stack[1:]
        self.counters.clear()
        self._seen_fields.clear()
        self._ah_start = self._ah_counts()

    def export(self) -> dict:
        """Spans and counters recorded in a forked child, for ``merge``."""
        counters = dict(self.counters)
        self._add_ah_delta(counters)
        return {
            "names": self.names.tobytes(),
            "parents": self.parents.tobytes(),
            "starts": self.starts.tobytes(),
            "ends": self.ends.tobytes(),
            "counters": counters,
        }

    def merge(self, exported: dict) -> None:
        offset = len(self.names)
        self.names.frombytes(exported["names"])
        parents = array("i")
        parents.frombytes(exported["parents"])
        self.parents.extend(p + offset if p >= 0 else -1 for p in parents)
        self.starts.frombytes(exported["starts"])
        self.ends.frombytes(exported["ends"])
        for key, value in exported["counters"].items():
            self._add(key, value)

    # -- results ------------------------------------------------------------------

    def layer_metrics(self, report_bytes: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        n = len(self.names)
        child = array("d", bytes(8 * n))
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        fn_count = len(self.labels)
        self_by_fn = [0.0] * fn_count
        incl_by_fn = [0.0] * fn_count
        calls_by_fn = [0] * fn_count
        for i in range(n):
            k = names[i]
            dur = ends[i] - starts[i]
            self_by_fn[k] += dur - child[i]
            incl_by_fn[k] += dur
            calls_by_fn[k] += 1

        def calls(label: str) -> int:
            return calls_by_fn[self.fn_index[label]]

        def incl(label: str) -> float:
            return incl_by_fn[self.fn_index[label]]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counters
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            key = layer.lstrip("_")  # metric names start with a letter: _gf -> gf
            idx = [k for k in range(fn_count) if self.layer_of[k] == layer]
            out[f"{key}.self_s"] = (sum(self_by_fn[k] for k in idx), "s")
            out[f"{key}.calls"] = (sum(calls_by_fn[k] for k in idx), "count")
        hits, misses = c.get("ah_hits", 0), c.get("ah_misses", 0)
        tested = c.get("candidates_tested", 0)
        pairings = calls("series_oracle.residue_trace_pairing")
        out.update(
            {
                "tame_chars.n_values_calls": (calls("tame_chars.n_values"), "count"),
                "tame_chars.validate_character_calls": (
                    calls("tame_chars.validate_character"),
                    "count",
                ),
                "cohomology.jumps": (c.get("jumps", 0), "count"),
                "weight_lattice.candidates_tested": (tested, "count"),
                "weight_lattice.candidate_yield": (
                    ratio(c.get("candidates_returned", 0), tested),
                    "1",
                ),
                "serre_basis.constructive_s": (incl("serre_basis.j_v_ah"), "s"),
                "serre_basis.bruteforce_s": (incl("serre_basis.j_v_ah_bruteforce"), "s"),
                "serre_basis.w_prime_s": (incl("serre_basis.w_prime"), "s"),
                "serre_basis.w_prime_size": (c.get("w_prime_size", 0), "count"),
                "serre_basis.i_m_index_calls": (calls("serre_basis.i_m_index"), "count"),
                "series_oracle.epsilon_unit_s": (incl("series_oracle.epsilon_unit"), "s"),
                "series_oracle.dlog_s": (incl("series_oracle.dlog_truncated"), "s"),
                "series_oracle.pairings": (pairings, "count"),
                "series_oracle.pairing_yield": (
                    ratio(c.get("pairings_nonzero", 0), pairings),
                    "1",
                ),
                "series_oracle.ah_cache_hit_ratio": (ratio(hits, hits + misses), "1"),
                "gf.mul_calls": (calls("_gf.mul"), "count"),
                "gf.mul_s": (incl("_gf.mul"), "s"),
                "gf.inv_calls": (calls("_gf.inv"), "count"),
                "gf.field_build_s": (c.get("field_build_s", 0.0), "s"),
                "gf.coeff_mults": (c.get("coeff_mults", 0), "count"),
                "io_cli.parser_s": (incl("io_cli.build_parser"), "s"),
                "io_cli.report_bytes": (report_bytes, "bytes"),
            }
        )
        return out

    def write(self, path) -> None:
        """One JSON header line, then the raw name, parent, start, end arrays."""
        header = {
            "labels": self.labels,
            "spans": len(self.names),
            "arrays": [
                ["names", self.names.typecode, self.names.itemsize],
                ["parents", self.parents.typecode, self.parents.itemsize],
                ["starts", self.starts.typecode, self.starts.itemsize],
                ["ends", self.ends.typecode, self.ends.itemsize],
            ],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(handle)
