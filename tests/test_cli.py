"""Command-line interface: reports, exit codes, schema, and determinism."""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from serreweights import (
    FieldParams,
    InvalidEM,
    InvalidInput,
    InvariantError,
    NoValidShift,
    SchemaError,
    SerreWeightsError,
    character,
    l_v_ah,
    parse_problem,
    reduced_exponents,
    run_command,
)
import serreweights
import serreweights.io_cli as io_cli
from serreweights import serre_basis, tame_chars, weight_lattice


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dims_report(capsys):
    code, doc = run_json(
        capsys, ["dims", "--p", "3", "--e", "1", "--f", "2", "--chi-exps", "2,1"]
    )
    assert code == 0
    assert doc["command"] == "dims"
    assert doc["params"] == {"p": 3, "e": 1, "f": 2}
    assert doc["chi"]["signature"] == [2, 1]
    assert doc["chi"]["class"] == "5"
    assert doc["h1"] == 2
    assert doc["jump_profile"] == [{"s": "13/8", "dim": 1}, {"s": "15/8", "dim": 1}]
    assert doc["windows"] == [2]
    assert doc["status"] == "ok"


def test_basis_report(capsys):
    code, doc = run_json(
        capsys, ["basis", "--p", "3", "--e", "1", "--f", "2", "--chi-exps", "1,2"]
    )
    assert code == 0
    assert doc["n_values"] == ["7", "5"]
    assert doc["niveau"] == 2
    assert doc["w_prime"] == ["5", "7"]
    assert doc["labels"] == [
        {"kind": "alpha", "m": "5", "k": 0},
        {"kind": "alpha", "m": "7", "k": 0},
    ]


def test_profile_report(capsys):
    code, doc = run_json(
        capsys,
        ["profile", "--p", "3", "--e", "2", "--f", "1", "--r", "2",
         "--chi2-exps", "1", "--chi1-exps", "2"],
    )
    assert code == 0
    assert doc["m"] == [1]
    assert doc["j_min"] == []
    assert doc["t"] == [1]
    assert doc["s"] == [2]
    assert doc["intervals"] == [[1]]
    assert doc["xi"] == ["5"]
    assert doc["n_values"] == ["1"]
    assert doc["chi"]["signature"] == [1]
    assert doc["status"] == "ok"


def test_lv_report(capsys):
    code, doc = run_json(
        capsys,
        ["lv", "--p", "3", "--e", "2", "--f", "1", "--r", "2",
         "--chi2-exps", "1", "--chi1-exps", "2"],
    )
    assert code == 0
    assert doc["exceptional"] is False
    assert doc["labels"] == [{"kind": "alpha", "m": "1", "k": 0}]
    assert doc["dimension"] == 1
    assert doc["e_m"] == "2"
    assert doc["status"] == "ok"


def test_lv_trivial_quotient_extra_degree(capsys):
    code, doc = run_json(
        capsys,
        ["lv", "--p", "3", "--e", "1", "--f", "1", "--r", "2",
         "--chi2-exps", "0", "--chi1-exps", "0"],
    )
    assert code == 0
    assert doc["labels"] == [
        {"kind": "alpha", "m": "2", "k": 0},
        {"kind": "unramified"},
    ]
    assert doc["extra_degree_index"] == 0
    assert doc["extra_degree"] == "3"


def test_lv_empty_is_success(capsys):
    code, doc = run_json(
        capsys,
        ["profile", "--p", "3", "--e", "1", "--f", "1", "--r", "2",
         "--chi2-exps", "1", "--chi1-exps", "0"],
    )
    assert code == 0
    assert doc["status"] == "lv_empty"
    assert "detail" in doc


def test_oracle_report(capsys):
    code, doc = run_json(
        capsys,
        ["oracle", "--p", "3", "--e", "2", "--f", "1", "--r", "2",
         "--chi2-exps", "1", "--chi1-exps", "2", "--e-m", "2"],
    )
    assert code == 0
    assert doc["agree"] is True
    assert doc["status"] == "ok"
    assert doc["j_constructive"] == doc["j_bruteforce"] == doc["j_oracle"]


ORACLE_F3 = ["oracle", "--p", "2", "--e", "1", "--f", "3", "--r=1,1,1",
             "--chi1-exps=2,1,2", "--chi2-exps=1,2,1"]


def test_invariant_violation_exits_1(capsys, monkeypatch):
    """A failed theorem-level identity exits 1 with nothing on stdout."""
    def planted(*args):
        raise serreweights.InternalInvariantViolation("planted")

    monkeypatch.setattr(io_cli, "j_v_ah", planted)
    assert run_command(ORACLE_F3) == 1
    assert capsys.readouterr() == ("", "invariant violation: planted\n")


def test_oracle_disagreement_exits_1(capsys, monkeypatch):
    """An oracle that finds no labels disagrees with both routes: the report
    is still written, with its verdict, and the exit code is 1."""
    monkeypatch.setattr(io_cli, "rederive_jvah", lambda *args: frozenset())
    code, doc = run_json(capsys, ORACLE_F3)
    assert code == 1
    assert doc["j_oracle"] == [] and doc["j_constructive"]
    assert doc["agree"] is False and doc["status"] == "oracle_mismatch"


def test_negative_trunc_is_invalid_input(capsys, tmp_path):
    """The oracle reads its truncation and field degree from the instance:
    a flag or a document node that would set either exits 2."""
    for knob in (["--trunc", "-3"], ["--trunc", "0"], ["--fq-degree", "6"]):
        assert run_command(ORACLE_F3 + knob) == 2
        assert "unrecognized arguments: " + " ".join(knob) in capsys.readouterr().err
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_doc((2, 1, 3), {"r": [1, 1, 1]}, [2, 1, 2], [1, 2, 1],
                                    oracle={"trunc": -5})))
    assert run_command(["oracle", "--problem", str(path)]) == 2
    assert capsys.readouterr().err == "invalid input: unknown key at .oracle\n"


def test_invalid_input_exits_2(capsys):
    assert run_command(["dims", "--p", "4", "--e", "1", "--f", "1",
                        "--chi-exps", "0"]) == 2
    capsys.readouterr()
    assert run_command(["lv", "--p", "3", "--e", "2", "--f", "1", "--r", "2",
                        "--chi2-exps", "1", "--chi1-exps", "2", "--e-m", "3"]) == 2
    capsys.readouterr()


# An oracle request whose unramified part has order 31 at f = 3: a field
# holding both the 93 tensor components and the value has degree
# lcm(3 * 31, 5) = 465, but the pairing's values lie in F_p(a) = F_{2^5}.
ORACLE_DEGREE_465 = ["oracle", "--p", "2", "--e", "1", "--f", "3", "--r", "1,1,1",
                     "--chi1-exps", "0,0,0", "--chi2-exps", "0,0,0",
                     "--chi1-unram", "5:1"]


def test_oracle_answers_in_the_field_of_the_unramified_value(capsys):
    code, doc = run_json(capsys, ORACLE_DEGREE_465)
    assert code == 0
    assert doc["agree"] is True and doc["status"] == "ok"
    assert doc["j_oracle"] == doc["j_constructive"] == doc["j_bruteforce"]


def test_resource_limit_exits_3(capsys):
    """An order of 2^16 - 1 at f = 3 needs n = 196 605 tensor components,
    above the bound 2^16; the oracle stops before building a field or a
    tuple."""
    argv = ORACLE_DEGREE_465[:-1] + ["16:1"]
    start = time.perf_counter()
    assert run_command(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "resource limit: the residue pairing needs n = f * order = 3 * 65535 = "
        "196605 components, above the bound n <= 65536\n"
    )


def test_field_degree_past_the_cap_exits_3(capsys):
    """A value of order 29 at p = 2 lies in F_{2^28}: n = 29 is within its
    bound, but the field's degree is above the cap of 24."""
    argv = ["oracle", "--p", "2", "--e", "1", "--f", "1", "--r", "1",
            "--chi1-exps", "0", "--chi2-exps", "0", "--chi1-unram", "28:9256395"]
    assert run_command(argv) == 3
    assert capsys.readouterr().err == (
        "resource limit: extension degree 28 exceeds the supported cap 24\n"
    )


_STDERR_PREFIXES = ("invalid input: ", "resource limit: ", "invariant violation: ")


def _readme_exit_code_examples():
    """Each README command followed by a comment ending ``(exit code N)``, as
    (argv, N, the comment's text when it is a stderr line or None, whether
    that text was cut at "...")."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    examples, command = [], None
    for line in lines:
        stated = re.fullmatch(r"# (.*)  \(exit code (\d)\)", line)
        if command is not None and command.endswith("\\"):
            command = command[:-1] + line
        elif line.startswith("serreweights "):
            command = line
        elif command is not None and stated:
            text, cut, _ = stated[1].partition("...")
            if not text.startswith(_STDERR_PREFIXES):
                text = None
            examples.append((shlex.split(command)[1:], int(stated[2]), text, bool(cut)))
            command = None
        else:
            command = None
    return examples


def test_readme_examples_exit_as_stated(capsys):
    """Every README example that states an exit code runs to it, with the
    stderr line it quotes; the others write nothing to stderr."""
    examples = _readme_exit_code_examples()
    assert sorted(code for _, code, _, _ in examples) == [0, 2, 3, 3, 3, 3]
    for argv, code, text, cut in examples:
        assert run_command(argv) == code, argv
        err = capsys.readouterr().err
        if text is None:
            assert err == "", argv
        else:
            assert err.startswith(text) if cut else err == text + "\n", argv


def test_a_factor_of_p_r_minus_1_past_the_primality_bound_is_named(capsys):
    """The undecided number is a factor of p^3 - 1, not p: the resource
    limit names it as one (it used to call it "p")."""
    p = 655_360_000_000_001
    factor = (p * p + p + 1) // 7
    argv = ["oracle", "--p", str(p), "--e", "1", "--f", "1", "--r=1",
            "--chi1-exps=1", "--chi2-exps=0",
            "--chi1-unram", "3:40210710958665326927169828571709440000000000"]
    assert run_command(argv) == 3
    assert capsys.readouterr() == ("", (
        f"resource limit: the factor {factor} of p^r - 1 passes the strong "
        "probable-prime test, which decides primality only below "
        "3317044064679887385961981\n"
    ))


@pytest.mark.parametrize("f", [21, 64])
def test_pair_commands_answer_at_many_slots(capsys, f):
    """The shift search has no cap on f: profile, lv and oracle answer."""
    ones, zeros = ",".join(["1"] * f), ",".join(["0"] * f)
    flags = ["--p", "2", "--e", "1", "--f", str(f),
             f"--r={ones}", f"--chi1-exps={zeros}", f"--chi2-exps={zeros}"]
    for command in ("profile", "lv", "oracle"):
        code, doc = run_json(capsys, [command, *flags])
        assert code == 0, command
    assert doc["agree"] is True


def test_w_prime_is_walked_once_and_read_by_every_index_reader(capsys, monkeypatch):
    """W' is built on the first read of a signature's record, not with the
    record: profile leaves it unset, dims fills it, and basis, ``w_prime``,
    ``jump_profile`` and ``window_cardinality`` then read that one tuple."""
    tame_chars._derived.cache_clear()
    params = FieldParams(3, 1000, 1)
    cell = ["--p", "3", "--e", "1000", "--f", "1"]
    code, _ = run_json(capsys, ["profile", *cell, "--r=2", "--chi1-exps=1", "--chi2-exps=0"])
    assert code == 0
    cached = tame_chars._derived.cache_info().currsize
    records = [tame_chars._derived(params, tame_chars.TameSignature((a,))) for a in (1, 2)]
    assert tame_chars._derived.cache_info().currsize == cached  # both were built
    assert [record.w_prime for record in records] == [None, None]

    read = []

    def spy(real):
        def reading(*args):
            read.append(real(*args))
            return read[-1]
        return reading

    for module in (serreweights.cohomology, serre_basis):
        monkeypatch.setattr(module, "_w_prime", spy(module._w_prime))
    code, doc = run_json(capsys, ["dims", *cell, "--chi-exps=1"])
    assert code == 0 and doc["windows"] == [1] * 1000
    walked = records[0].w_prime
    assert walked is not None and records[1].w_prime is None
    assert run_command(["basis", *cell, "--chi-exps=1"]) == 0
    chi = character(params, (1,))
    assert serreweights.w_prime(params, chi) is walked
    serreweights.jump_profile(params, chi)
    serreweights.window_cardinality(params, chi, 999)
    assert len(read) > 1000 and all(w is walked for w in read)


def test_verify_keeps_each_signature_record_across_its_phases(capsys, monkeypatch):
    """On a cleared ``_derived``, one verify call misses once per
    (FieldParams, signature) key it touches, however many of its phases
    read the record, and a second identical call misses none."""
    real = tame_chars._derived
    touched = set()

    def spy(params, sig):
        touched.add((params, sig))
        return real(params, sig)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("serreweights") and getattr(module, "_derived", None) is real:
            monkeypatch.setattr(module, "_derived", spy)
    argv = ["verify", "--p-max", "3", "--e-max", "2", "--f-max", "2",
            "--with-oracle", "--jobs", "1"]
    real.cache_clear()
    assert run_json(capsys, argv)[0] == 0
    first = real.cache_info()
    # Every signature class of every cell: sum (p^f - 1) over (p, e, f).
    assert len(touched) == first.misses == 2 * (1 + 3) + 2 * (2 + 8)
    assert run_json(capsys, argv)[0] == 0
    assert real.cache_info().misses == first.misses
    assert real.cache_info().hits > first.hits


# The deepest spanning monomial sits at degree -p, so the truncation is p
ORACLE_LARGE_P = ["oracle", "--p", "1000000007", "--e", "1", "--f", "1", "--r=1",
                  "--chi1-exps=1", "--chi2-exps=0"]


def test_oracle_answers_at_p_near_1e9(capsys):
    """The oracle writes each unit's dlog in closed form, one term per
    power of p up to the truncation, so a truncation of p = 10^9 + 7
    costs two terms a unit."""
    start = time.perf_counter()
    code, doc = run_json(capsys, ORACLE_LARGE_P)
    assert time.perf_counter() - start < 60.0  # no series of 10^9 terms
    assert code == 0
    assert doc["agree"] is True and doc["status"] == "ok"


def test_oracle_at_a_safe_prime_factors_p_minus_1_quickly(capsys):
    """p - 1 = 2q with q prime: the field of F_p stops factoring once q is
    left, where trial division ran to sqrt(q) ~ 7 * 10^7 for seconds."""
    argv = ["oracle", "--p", "10000000000004447", "--e", "1", "--f", "1",
            "--r=1", "--chi1-exps=1", "--chi2-exps=0"]
    start = time.perf_counter()
    code, doc = run_json(capsys, argv)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert doc["agree"] is True and doc["status"] == "ok"


def test_oracle_at_p13_agrees(capsys):
    """The (13, 1, 2) instance whose Moebius route used to take seconds."""
    code, doc = run_json(
        capsys,
        ["oracle", "--p", "13", "--e", "1", "--f", "2", "--r=12,1",
         "--chi1-exps=12,13", "--chi2-exps=11,13"],
    )
    assert code == 0
    assert doc["agree"] is True and doc["status"] == "ok"
    assert doc["j_constructive"] == doc["j_bruteforce"] == doc["j_oracle"]
    assert doc["j_oracle"]


REPO = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_finds_every_layer_metric(capsys, monkeypatch):
    """The benchmark's tracer looks functions up by name; a renamed or
    removed public function would make ``layer_metrics`` raise KeyError."""
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert run_command(ORACLE_F3) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.layer_metrics(0)
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {
        m["name"] for m in declared if not m["name"].startswith("trace.")
    }
    assert metrics["series_oracle.pairings"][0] > 0
    assert tracing.leftover_wrappers() == []


def test_benchmark_self_test_passes():
    """The harness's own check (tiny sizes, mutation and cleanup checks) runs
    with the suite, so a renamed public function fails here too."""
    done = run_python(
        [str(REPO / "benchmarks" / "run.py"), "--self-test"], timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "SELF-TEST PASSED" in done.stdout


def run_python(args, timeout=60):
    """A fresh interpreter that imports this checkout's package."""
    src = str(Path(serreweights.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable] + args, capture_output=True, text=True, env=env,
        timeout=timeout,
    )


def test_large_unramified_degree_exits_2():
    """The least field of a degree-10^6 unramified value is found among the
    divisors of 10^6, not by a scan over r = 1, 2, ...; the pair is then
    rejected as bad input."""
    done = run_python(["-m", "serreweights", "lv", "--p", "3", "--e", "1", "--f", "1",
                       "--r=1", "--chi1-exps=1", "--chi2-exps=1",
                       "--chi1-unram", "1000000:5"])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("invalid input: ")


def test_python_dash_m_runs_the_cli():
    done = run_python(["-m", "serreweights", "dims", "--p", "3", "--e", "1",
                       "--f", "2", "--chi-exps", "2,1"])
    assert done.returncode == 0
    assert done.stderr == ""
    assert json.loads(done.stdout)["h1"] == 2


CLI_ONLY_MODULES = ("multiprocessing", "argparse", "csv", "json")
# The records are NamedTuples, so nothing in the package loads these.
UNUSED_MODULES = ("dataclasses", "inspect")


# The standard-library modules that the package's modules import at their
# top level.  What these load on their own differs between interpreter
# versions; any other module that ``import serreweights`` adds is import
# time that every cold query pays.
IMPORT_ALLOWED = (
    "__future__", "bisect", "collections", "fractions", "functools", "io",
    "itertools", "math", "operator", "os", "sys", "typing",
)


def test_import_loads_no_multiprocessing():
    """Nor any other module that only the command line uses, nor one that
    no module of the package uses; and no top-level module beyond
    ``IMPORT_ALLOWED`` and what those load.  The probe runs under -S, so no
    ``site`` hook (a .pth file) loads modules ahead of it."""
    done = run_python(
        ["-S", "-c", "import sys; "
               f"[__import__(m) for m in {IMPORT_ALLOWED!r}]; "
               "before = {m.split('.')[0] for m in sys.modules}; "
               "import serreweights; "
               "print([m for m in "
               f"{CLI_ONLY_MODULES + UNUSED_MODULES!r} if m in sys.modules]); "
               "print(sorted({m.split('.')[0] for m in sys.modules} - before "
               "- {'serreweights'}))"]
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]"]


def test_import_allowlist_is_what_the_package_imports():
    """``IMPORT_ALLOWED`` names exactly the standard-library modules that the
    package's modules import at their top level, so it grows with them."""
    imported = set()
    for path in Path(serreweights.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported - {"serreweights"} == set(IMPORT_ALLOWED)


def test_dims_at_large_p_enumerates_the_progressions():
    """Every m below e p (p^f - 1)/(p - 1) is about 10^8 values here; only
    the terms of the n_i progressions are visited."""
    done = run_python(["-m", "serreweights", "dims", "--p", "10007", "--e", "1",
                       "--f", "2", "--chi-exps=5,0"])
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["h1"] == 2
    assert [jump["dim"] for jump in doc["jump_profile"]] == [1, 1]
    assert doc["windows"] == [2]


def _dims_at(p):
    return run_python(["-m", "serreweights", "dims", "--p", str(p), "--e", "1",
                       "--f", "1", "--chi-exps=1"])


def test_large_prime_p_is_decided_without_trial_division():
    """Trial division to the square root of 10^18 + 3 would take minutes."""
    done = _dims_at(1000000000000000003)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["params"]["p"] == 1000000000000000003
    done = _dims_at(1000000000000000001)
    assert done.returncode == 2
    assert done.stderr == "invalid input: p = 1000000000000000001 is not prime\n"


def test_prime_p_above_the_exact_bound_exits_3():
    done = _dims_at(2**89 - 1)
    assert done.returncode == 3
    assert done.stderr.startswith("resource limit: ")


def test_unknown_arguments_exit_2(capsys):
    assert run_command(["dims", "--nope"]) == 2
    assert run_command(["not-a-command"]) == 2
    capsys.readouterr()


def test_csv_format_rejected_outside_sweep(capsys, monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(io_cli, "_grid_cells", no_grid)
    code = run_command(["dims", "--p", "3", "--e", "1", "--f", "1",
                        "--chi-exps", "1", "--format", "csv"])
    assert code == 2
    # the parser rejects it, before verify builds or checks any grid point
    assert run_command(["verify", "--format", "csv"]) == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dims", "--p", "3", "--e", "1", "--f", "1", "--chi-exps", "1"],
    ["sweep", "--p-max", "2", "--e-max", "1", "--f-max", "1"],
    ["verify", "--p-max", "2", "--e-max", "1", "--f-max", "1"],
])
def test_unwritable_out_is_invalid_input(capsys, monkeypatch, tmp_path, argv):
    """Found before any grid job runs."""
    def no_jobs(*_):
        raise AssertionError("the grid ran before --out was checked")

    monkeypatch.setattr(io_cli, "_mapped", no_jobs)
    out = tmp_path / "missing" / "report"
    assert run_command(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"invalid input: cannot write {out}: ")


def test_text_format(capsys):
    code = run_command(["dims", "--p", "3", "--e", "1", "--f", "2",
                        "--chi-exps", "2,1", "--format", "text"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "command: dims" in lines
    assert "h1: 2" in lines
    assert "jump_profile[0].s: 13/8" in lines


PROBLEM_DOC = {
    "params": {"p": 3, "e": 2, "f": 1},
    "weight": {"r": [2]},
    "chi1": {"exps": [2]},
    "chi2": {"exps": [1]},
    "e_m": 2,
}


def _doc(params, weight, chi1, chi2, **rest):
    p, e, f = params
    return {"params": {"p": p, "e": e, "f": f}, "weight": weight,
            "chi1": {"exps": chi1}, "chi2": {"exps": chi2}, **rest}


def _flags(params, *rest):
    p, e, f = params
    return ["--p", str(p), "--e", str(e), "--f", str(f), *rest]


# The worked instance of PROBLEM_DOC, without --e-m.
PAIR_P3E2 = _flags((3, 2, 1), "--r", "2", "--chi1-exps", "2", "--chi2-exps", "1")
DOC_P3E2 = _doc((3, 2, 1), {"r": [2]}, [2], [1])
UNRAM_DOC = {**DOC_P3E2,
             "chi1": {"exps": [2], "unram": {"degree": 2, "dlog": 3}},
             "chi2": {"exps": [1], "unram": {"degree": 1, "dlog": 1}}}


# A problem with no shift subset whose e_M fails validate_e_m: (p^f - 1)/e_M
# = 8 does not divide n_0 = 7.
FOUND_E_M_FLAGS = _flags((3, 1, 2), "--r=2,1", "--chi1-exps=0,0", "--chi2-exps=1,0",
                         "--e-m", "1")
FOUND_E_M_DOC = _doc((3, 1, 2), {"r": [2, 1]}, [0, 0], [1, 0], e_m=1)


@pytest.mark.parametrize("command, flags, doc, code", [
    pytest.param("lv", PAIR_P3E2 + ["--e-m", "2"], PROBLEM_DOC, 0, id="lv-r-e_m"),
    pytest.param("profile", PAIR_P3E2, DOC_P3E2, 0, id="profile-r"),
    pytest.param("oracle", PAIR_P3E2 + ["--e-m", "2"], PROBLEM_DOC, 0, id="oracle-e_m"),
    pytest.param(
        "lv", _flags((3, 1, 2), "--eta", "1,0",
                     "--chi1-exps", "5,0", "--chi2-exps", "0,0"),
        _doc((3, 1, 2), {"eta": [1, 0], "theta": [0, 0]}, [5, 0], [0, 0]),
        0, id="lv-eta",
    ),
    pytest.param(
        "lv", _flags((3, 1, 2), "--eta", "2,1", "--theta", "1,1",
                     "--chi1-exps", "6,1", "--chi2-exps", "1,1"),
        _doc((3, 1, 2), {"eta": [2, 1], "theta": [1, 1]}, [6, 1], [1, 1]),
        0, id="lv-eta-theta",
    ),
    pytest.param(
        "profile", PAIR_P3E2 + ["--chi1-unram", "2:3", "--chi2-unram", "1:1"],
        UNRAM_DOC, 0, id="profile-unram",
    ),
    pytest.param(
        "profile", _flags((3, 1, 1), "--r", "1", "--chi1-exps", "1", "--chi2-exps", "0",
                          "--chi-cyclotomic"),
        _doc((3, 1, 1), {"r": [1]}, [1], [0], chi_cyclotomic=True),
        0, id="profile-cyclotomic",
    ),
    pytest.param(  # 3 does not divide p^f - 1 = 2
        "profile", _flags((3, 1, 1), "--r", "2", "--chi1-exps", "0", "--chi2-exps", "0",
                          "--e-m", "3"),
        _doc((3, 1, 1), {"r": [2]}, [0], [0], e_m=3),
        2, id="profile-bad-e_m",
    ),
    pytest.param(  # (p^f - 1)/e_M = 2 does not divide n_0 = 5, as lv and oracle say
        "profile", _flags((3, 1, 2), "--r", "2,1", "--chi1-exps", "5,0",
                          "--chi2-exps", "0,0", "--e-m", "4"),
        _doc((3, 1, 2), {"r": [2, 1]}, [5, 0], [0, 0], e_m=4),
        2, id="profile-e_m-not-dividing-n",
    ),
    pytest.param(  # no shift subset exists: e_M is checked before the search
        "profile", FOUND_E_M_FLAGS, FOUND_E_M_DOC, 2, id="profile-e_m-before-search",
    ),
    pytest.param(
        "oracle", FOUND_E_M_FLAGS, FOUND_E_M_DOC, 2, id="oracle-e_m-before-search",
    ),
])
def test_problem_document_matches_flags(capsys, tmp_path, command, flags, doc, code):
    """The flags spell a problem document: the same outcome, byte for byte."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    outcomes = []
    for argv in ([command, *flags], [command, "--problem", str(path)]):
        outcomes.append((run_command(argv), *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code


UNKNOWN_KEYS = [
    (".e_M", 3),
    (".oracle", {"trunc": 60}),
    (".params.q", 3),
    (".weight.rr", [2]),
    (".chi1.exp", [2]),
    (".chi2.unram.order", 2),
]


@pytest.mark.parametrize("path, value", UNKNOWN_KEYS, ids=[k for k, _ in UNKNOWN_KEYS])
def test_unknown_key_exits_2(capsys, tmp_path, path, value):
    """A key that nothing reads would drop what it meant to say: the
    document exits 2 and names its path."""
    doc = json.loads(json.dumps(UNRAM_DOC))
    *parents, key = path[1:].split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[key] = value
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    assert run_command(["oracle", "--problem", str(problem)]) == 2
    assert capsys.readouterr() == ("", f"invalid input: unknown key at {path}\n")


def test_pair_commands_take_the_same_flags():
    import argparse

    parser = io_cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = [
        {flag for action in sub.choices[name]._actions for flag in action.option_strings}
        for name in ("profile", "lv", "oracle")
    ]
    assert options[0] == options[1] == options[2]
    assert "--problem" in options[0]


def _reference_parser():
    """The parser built without parents: every subcommand adds its own
    flags, so it shares no action with another."""
    parser = argparse.ArgumentParser(
        prog="serreweights",
        description="Explicit basis labels and distinguished subspaces for "
        "tame two-dimensional mod-p extensions, with a series oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, add_flags, help_text in (
        ("dims", io_cli.cmd_dims, io_cli._add_char_flags, "jump filtration dimensions"),
        ("basis", io_cli.cmd_basis, io_cli._add_char_flags, "index sets and basis labels"),
        ("profile", io_cli.cmd_profile, io_cli._add_pair_flags, "shift profile (t, s, I, xi)"),
        ("lv", io_cli.cmd_lv, io_cli._add_pair_flags, "distinguished subspace labels"),
        ("oracle", io_cli.cmd_oracle, io_cli._add_pair_flags, "residue-pairing re-derivation"),
        ("verify", io_cli.cmd_verify, io_cli._add_verify_flags, "run the property suite on a grid"),
        ("sweep", io_cli.cmd_sweep, io_cli._add_sweep_flags, "CSV sweep over a parameter grid"),
    ):
        command = sub.add_parser(name, help=help_text)
        add_flags(command)
        command.set_defaults(func=func)
    return parser


def _helps(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [parser.format_help()] + [
        f"{name}\n{command.format_help()}" for name, command in sub.choices.items()
    ]


def test_parser_help_matches_the_reference(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    helps = _helps(io_cli.build_parser())
    assert len(helps) == 8
    assert helps == _helps(_reference_parser())


# Further terminal widths the help must wrap at alike (80 is the case
# above); None leaves COLUMNS unset, so both parsers take the
# non-terminal fallback.
OTHER_WIDTHS = ["40", "200", None]


def _set_columns(monkeypatch, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)


@pytest.mark.parametrize("columns", OTHER_WIDTHS, ids=str)
def test_parser_help_matches_the_reference_at_width(monkeypatch, columns):
    _set_columns(monkeypatch, columns)
    helps = _helps(io_cli.build_parser())
    assert len(helps) == 8
    assert helps == _helps(_reference_parser())


def test_one_build_reads_the_terminal_size_once(monkeypatch):
    """argparse makes a formatter per flag added; the build pins them all
    to one width, so the terminal is read once, not once per flag."""
    import shutil

    reads = []
    real = shutil.get_terminal_size

    def counted(*args, **kwargs):
        reads.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    io_cli.build_parser()
    assert len(reads) == 1


def test_a_new_build_formats_at_the_new_width(monkeypatch):
    """The width is read per build, never kept from an earlier one."""
    monkeypatch.setenv("COLUMNS", "200")
    wide = _helps(io_cli.build_parser())
    assert wide == _helps(_reference_parser())
    monkeypatch.setenv("COLUMNS", "40")
    narrow = _helps(io_cli.build_parser())
    assert narrow == _helps(_reference_parser())
    assert narrow != wide


VALID_ARGVS = [
    ["dims", "--p", "3", "--e", "1", "--f", "2", "--chi-exps", "2,1"],
    ["basis", "--p=5", "--e=2", "--f=1", "--chi-exps=3", "--chi-unram", "2:1",
     "--chi-trivial", "--chi-cyclotomic", "--format", "text", "--out", "x.json"],
    ["profile", *PAIR_P3E2],
    ["lv", *PAIR_P3E2, "--e-m", "2", "--chi2-unramified", "--chi-cyclotomic"],
    ["oracle", "--p", "2", "--e", "1", "--f", "3", "--eta=1,0,1", "--theta=0,0,1",
     "--chi1-exps=2,1,2", "--chi1-unram=2:1", "--chi2-exps=1,2,1",
     "--chi2-unram=1:0"],
    ["lv", "--problem", "-", "--format", "text"],
    ["verify"],
    ["verify", "--p-max", "5", "--e-max", "3", "--f-max", "3", "--with-oracle",
     "--jobs", "2", "--max-instances", "100", "--format", "text", "--out", "v.json"],
    ["sweep", "--p-max=2", "--out", "s.csv"],
]


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=[" ".join(a[:2]) for a in VALID_ARGVS])
def test_parsed_arguments_match_the_reference(argv):
    assert vars(io_cli.build_parser().parse_args(argv)) == vars(
        _reference_parser().parse_args(argv)
    )


BAD_ARGVS = [
    ["not-a-command"],
    ["dims", *_flags((3, 1, 1)), "--chi-exps", "1", "--nope"],
    ["dims", "--e", "1", "--f", "1", "--chi-exps", "1"],
    ["dims", "--p", "x", "--e", "1", "--f", "1"],
    ["lv", *PAIR_P3E2, "--r=--"],
    ["-h"],
    ["lv", "-h"],
]


def _parse_outcomes(capsys, monkeypatch, argv):
    """Exit code, stdout and stderr under io_cli's parser, then the reference's."""
    outcomes = []
    for build in (io_cli.build_parser, _reference_parser):
        monkeypatch.setattr(io_cli, "build_parser", build)
        code = run_command(argv)
        outcomes.append((code, *capsys.readouterr()))
    return outcomes


BAD_IDS = [" ".join(a[:2]) for a in BAD_ARGVS]


@pytest.mark.parametrize("argv", BAD_ARGVS, ids=BAD_IDS)
def test_parse_failures_match_the_reference(capsys, monkeypatch, argv):
    """Exit code, stdout and stderr of a parse failure or a help request."""
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = _parse_outcomes(capsys, monkeypatch, argv)
    assert outcomes[0][0] in (0, 2)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("columns", OTHER_WIDTHS, ids=str)
@pytest.mark.parametrize("argv", BAD_ARGVS, ids=BAD_IDS)
def test_parse_failures_match_the_reference_at_width(capsys, monkeypatch, argv, columns):
    _set_columns(monkeypatch, columns)
    outcomes = _parse_outcomes(capsys, monkeypatch, argv)
    assert outcomes[0][0] in (0, 2)
    assert outcomes[0] == outcomes[1]


def test_shared_flag_sets_are_built_once_per_parser(monkeypatch):
    calls = []
    for name in ("_add_char_flags", "_add_pair_flags"):
        def counted(parser, real=getattr(io_cli, name), name=name):
            calls.append(name)
            real(parser)
        monkeypatch.setattr(io_cli, name, counted)
    io_cli.build_parser()
    assert sorted(calls) == ["_add_char_flags", "_add_pair_flags"]


LV_P5 = ["lv", *_flags((5, 1, 1)), "--r", "2", "--chi1-exps", "2", "--chi2-exps", "0"]
ORACLE_P3E2 = ["oracle", *PAIR_P3E2]


@pytest.mark.parametrize("first, second", [
    (LV_P5 + ["--e-m", "2"], LV_P5),
    (ORACLE_P3E2 + ["--chi1-unram", "2:1"], ORACLE_P3E2),
    (["dims", "--chi-trivial", *_flags((3, 1, 1)), "--chi-exps", "2"],
     ["basis", *_flags((3, 1, 1)), "--chi-exps", "1"]),
], ids=["lv-e_m", "oracle-chi1-unram", "dims-chi-trivial"])
def test_no_parse_state_carries_to_the_next_call(capsys, first, second):
    """The pair commands share their flag actions, as dims and basis do; a
    flag given to one call leaves the next call's report as it is alone."""
    assert run_command(second) == 0
    alone = capsys.readouterr()
    assert run_command(first) == 0
    capsys.readouterr()
    assert run_command(second) == 0
    assert capsys.readouterr() == alone


def test_each_pair_command_reports_its_own_name(capsys):
    for command in ("profile", "lv", "oracle", "profile"):
        code, doc = run_json(capsys, [command, *PAIR_P3E2])
        assert (code, doc["command"]) == (0, command)


@pytest.mark.parametrize("command", ["profile", "lv", "oracle"])
@pytest.mark.parametrize("flag", ["--p", "--e", "--f"])
def test_missing_field_flag_exits_2(capsys, command, flag):
    argv = [command, *PAIR_P3E2]
    at = argv.index(flag)
    del argv[at:at + 2]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err == f"invalid input: missing key at .params.{flag[2:]}\n"


def test_pair_commands_check_e_m_before_the_shift_search(capsys):
    """``parse_problem`` checks e_M against the quotient, so the three pair
    commands fail alike where no shift subset exists (profile and oracle
    reported lv_empty when they checked it after the search)."""
    for command in ("lv", "profile", "oracle"):
        assert run_command([command, *FOUND_E_M_FLAGS]) == 2, command
        assert capsys.readouterr() == (
            "", "invalid input: (p^f - 1)/e_M = 8 does not divide n_i = 7\n"
        )
    with pytest.raises(NoValidShift):
        l_v_ah(*parse_problem({**FOUND_E_M_DOC, "e_m": 8})[:4])


def test_parse_problem_checks_the_cyclotomic_declaration_first(capsys):
    """The quotient is built when the document is parsed, so a wrong
    --chi-cyclotomic is reported before --chi2-unramified is asserted."""
    doc = _doc((5, 1, 1), {"r": [2]}, [1], [1], chi_cyclotomic=True)
    message = "cyclotomic declaration inconsistent with signature (4,)"
    with pytest.raises(InvariantError) as raised:
        parse_problem(doc)
    assert str(raised.value) == message
    flags = _flags((5, 1, 1), "--r", "2", "--chi1-exps", "1", "--chi2-exps", "1",
                   "--chi-cyclotomic", "--chi2-unramified")
    for command in ("lv", "profile", "oracle"):
        assert run_command([command, *flags]) == 2, command
        assert capsys.readouterr().err == f"invalid input: {message}\n"


def test_chi2_unramified_is_checked_for_flags_and_documents(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(DOC_P3E2))
    for source in (PAIR_P3E2, ["--problem", str(path)]):
        assert run_command(["lv", *source, "--chi2-unramified"]) == 2
        assert capsys.readouterr().err == (
            "invalid input: --chi2-unramified contradicts the chi2 exponents\n"
        )


@pytest.mark.parametrize("command", ["profile", "lv", "oracle"])
def test_flags_beside_problem_exit_2(capsys, tmp_path, command):
    """A pair flag beside --problem is rejected by the path it would set;
    --chi2-unramified asserts and sets nothing, so it stays allowed."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(DOC_P3E2))
    problem = [command, "--problem", str(path)]
    assert run_command(problem + ["--p", "5", "--e", "9", "--r", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "invalid input: flags given beside --problem: .params.p, .params.e, .weight.r\n"
    )
    assert run_command(problem + ["--chi1-unram", "2:3", "--e-m", "2"]) == 2
    assert capsys.readouterr().err == (
        "invalid input: flags given beside --problem: .chi1.unram, .e_m\n"
    )
    unramified = tmp_path / "unramified.json"
    unramified.write_text(json.dumps(_doc((3, 1, 1), {"r": [2]}, [0], [0])))
    assert run_command([command, "--problem", str(unramified), "--chi2-unramified"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("exps, declare, code", [
    ("2", [], 0), ("2", ["--chi-trivial"], 0), ("1", ["--chi-trivial"], 2),
], ids=["trivial", "declared", "contradicted"])
def test_chi_trivial_is_the_documents_trivial_declaration(capsys, exps, declare, code):
    """An unset --chi-trivial declares nothing; a set one is ``trivial: true``."""
    argv = ["dims", *_flags((3, 1, 1)), "--chi-exps", exps, *declare]
    assert run_command(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert err == (
            "invalid input: .chi.trivial = True contradicts the character data\n"
        )
    else:
        assert json.loads(out)["chi"]["trivial"] is True


_TEXT_FLAGS = ("--r", "--eta", "--theta", "--chi1-exps", "--chi2-exps",
               "--chi1-unram", "--chi2-unram")


@st.composite
def _flag_argvs(draw):
    """A profile or lv argv at p in {2, 3} and e, f <= 2.  One of --p/--e/--f
    may be dropped.  Each text flag is absent, short text over the characters
    "0-9 , : - _" and space, or a well-formed tuple or DEGREE:DLOG, so that
    some argvs get past the parser and a few succeed."""
    p = draw(st.sampled_from([2, 3]))
    e, f = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    dropped = draw(st.none() | st.sampled_from(["--p", "--e", "--f"]))
    argv = [draw(st.sampled_from(["profile", "lv"]))]
    for flag, value in (("--p", p), ("--e", e), ("--f", f)):
        if flag != dropped:
            argv += [flag, str(value)]
    text = st.text(alphabet="0123456789,:-_ ", max_size=5)
    digits = st.lists(st.integers(0, p), min_size=f, max_size=f)
    well_formed = {
        "unram": st.tuples(st.integers(1, 2), st.integers(0, 3)).map("%d:%d".__mod__),
        "other": digits.map(lambda xs: ",".join(map(str, xs))),
    }
    for flag in _TEXT_FLAGS:
        kind = "unram" if flag.endswith("unram") else "other"
        value = draw(st.none() | text | well_formed[kind])
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=300)
@given(_flag_argvs())
def test_flag_text_never_escapes(argv):
    """Whatever text the flags carry, the outcome is an exit code: 0, bad
    input (2) or a resource limit (3), never a traceback."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert run_command(argv) in (0, 2, 3)


@pytest.mark.parametrize("flag, argv", [
    ("--p", ["dims", "--p=--", "--e", "1", "--f", "1", "--chi-exps", "1"]),
    ("--r", ["lv", *PAIR_P3E2, "--r=--"]),
    ("--jobs", ["verify", "--jobs=--"]),
], ids=["dims", "lv", "verify"])
def test_double_dash_flag_value_exits_2(capsys, flag, argv):
    """An explicit "--" value is rejected before parsing, with the same
    message on every Python version: argparse up to 3.12 drops it and
    leaves an empty list, 3.13 hands it to the flag's type."""
    assert run_command(argv) == 2
    assert f"argument {flag}: expected one argument\n" in capsys.readouterr().err


def test_problem_document_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PROBLEM_DOC)))
    code, doc = run_json(capsys, ["lv", "--problem", "-"])
    assert code == 0
    assert doc["labels"] == [{"kind": "alpha", "m": "1", "k": 0}]


def test_problem_document_bad_json_is_invalid_input(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"params": {"p": 3'))
    assert run_command(["lv", "--problem", "-"]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert run_command(["lv", "--problem", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_parse_problem_round_trip():
    problem = parse_problem(PROBLEM_DOC)
    assert problem.params == FieldParams(3, 2, 1)
    assert problem.weight.eta == (1,)
    assert problem.e_m == 2
    assert problem.chi1.signature.a == (2,)


def test_parse_problem_schema_errors():
    with pytest.raises(SchemaError, match=r"missing key at \.params"):
        parse_problem({"weight": {"r": [2]}, "chi1": {}, "chi2": {}})
    with pytest.raises(SchemaError, match=r"expected an integer at \.params\.p"):
        parse_problem({**PROBLEM_DOC, "params": {"p": 3.0, "e": 2, "f": 1}})
    with pytest.raises(SchemaError, match=r"expected an object at \.weight"):
        parse_problem({**PROBLEM_DOC, "weight": [2]})
    with pytest.raises(SchemaError, match=r"expected an integer at \.chi1\.exps\[0\]"):
        parse_problem({**PROBLEM_DOC, "chi1": {"exps": ["x"]}})
    # a null required integer is not a missing optional one
    with pytest.raises(SchemaError, match=r"expected an integer at \.params\.p"):
        parse_problem({**PROBLEM_DOC, "params": {"p": None, "e": 2, "f": 1}})
    chi1 = {"exps": [2], "unram": {"degree": None, "dlog": 0}}
    with pytest.raises(SchemaError, match=r"expected an integer at \.chi1\.unram\.degree"):
        parse_problem({**PROBLEM_DOC, "chi1": chi1})


_LV_P3F1 = ["lv", "--p", "3", "--e", "1", "--f", "1", "--r=2", "--chi2-exps=0"]


@pytest.mark.parametrize("argv, err", [
    (_LV_P3F1 + ["--chi1-exps=1_0"], "invalid input: expected an integer at .chi1.exps[0]\n"),
    (_LV_P3F1 + ["--chi1-exps= 1"], "invalid input: expected an integer at .chi1.exps[0]\n"),
    (_LV_P3F1 + ["--chi1-exps=\u0661"], "invalid input: expected an integer at .chi1.exps[0]\n"),
    (_LV_P3F1 + ["--chi1-exps=0", "--chi1-unram=1:0_0"],
     "invalid input: expected an integer at .chi1.unram.dlog\n"),
    (["dims", "--p", "1_1", "--e", "1", "--f", "1", "--chi-exps", "1"],
     "argument --p: invalid _decimal value: '1_1'\n"),
    (["verify", "--jobs", "\u0661"], "argument --jobs: invalid _decimal value: '\u0661'\n"),
], ids=["underscore", "space", "arabic-indic", "unram-dlog", "dims-p", "verify-jobs"])
def test_integer_text_is_ascii_decimal_only(capsys, argv, err):
    """Flag and document integers are an optional sign and ASCII digits:
    text that Python's ``int`` also reads, such as "1_0" (which it reads
    as 10), " 1" or an Arabic-Indic digit, exits 2 instead of being read."""
    assert run_command(argv) == 2
    assert capsys.readouterr().err.endswith(err)


def test_document_integer_text_is_ascii_decimal_only(capsys, tmp_path):
    bad = {**PROBLEM_DOC, "params": {"p": 3, "e": 2, "f": "1_0"}}
    with pytest.raises(SchemaError, match=r"expected an integer at \.params\.f"):
        parse_problem(bad)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(bad))
    assert run_command(["lv", "--problem", str(path)]) == 2
    assert capsys.readouterr().err == "invalid input: expected an integer at .params.f\n"
    signed = {**PROBLEM_DOC, "params": {"p": "+3", "e": "2", "f": "1"}}
    assert parse_problem(signed).params == FieldParams(3, 2, 1)


def test_negative_integer_text_stays_valid(capsys):
    """-1 is decimal text: where a negative value is valid it is read, here
    as exponents congruent to the positive ones."""
    dims = ["dims", "--p", "3", "--e", "1", "--f", "2"]
    for negative, positive in (
        (_LV_P3F1 + ["--chi1-exps=-2"], _LV_P3F1 + ["--chi1-exps=10"]),
        (dims + ["--chi-exps=-1,0"], dims + ["--chi-exps=7,0"]),
    ):
        code, doc = run_json(capsys, negative)
        assert code == 0 and (code, doc) == run_json(capsys, positive)


def test_parse_problem_accepts_decimal_strings():
    # number-theoretic integers round trip through reports as strings
    doc = {**PROBLEM_DOC, "params": {"p": "3", "e": 2, "f": 1}}
    assert parse_problem(doc).params == FieldParams(3, 2, 1)


def test_parse_problem_flag_contradiction():
    # chi2 exps (1,) has class 1, so declaring it trivial is inconsistent
    doc = {**PROBLEM_DOC, "chi2": {"exps": [1], "trivial": True}}
    with pytest.raises(InvalidInput):
        parse_problem(doc)
    # exps (2,) has class 0 at p=3, f=1: the declaration is consistent
    parse_problem({**PROBLEM_DOC, "chi1": {"exps": [2], "trivial": True}})


def test_parse_problem_rejects_non_divisor_e_m():
    doc = {
        "params": {"p": 3, "e": 1, "f": 2},
        "weight": {"r": [2, 1]},
        "chi1": {"exps": [5, 0]},
        "chi2": {"exps": [0, 0]},
        "e_m": 3,
    }
    with pytest.raises(InvalidEM, match=r"^e_M = 3 does not divide p\^f - 1 = 8$"):
        parse_problem(doc)


def test_parse_problem_eta_theta_weight():
    doc = {
        "params": {"p": 3, "e": 1, "f": 2},
        "weight": {"eta": [2, 1], "theta": [1, 1]},
        "chi1": {"exps": [1, 1]},
        "chi2": {"exps": [1, 1]},
    }
    problem = parse_problem(doc)
    assert problem.weight.eta == (2, 1)
    assert problem.weight.theta == (1, 1)


@pytest.mark.parametrize("argv, message", [
    (["--p", "3", "--f", "2", "--chi-exps", "1,2"],
     "cyclotomic declaration inconsistent with signature (1, 2)"),
    (["--p", "2", "--f", "1", "--chi-exps", "0", "--chi-unram", "2:1"],
     "mod-2 cyclotomic declarations need trivial unram"),
])
def test_cyclotomic_flag_rules_exit_2(capsys, argv, message):
    assert run_command(["dims", "--e", "1", *argv, "--chi-cyclotomic"]) == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"


# Integers in [-4, 30], or their decimal strings.
_INT = st.integers(-4, 30)
_INT = st.one_of(_INT, _INT.map(str))
_FLAG = st.sampled_from([None, False, True])
_OTHER_SHAPES = st.one_of(
    st.none(),
    st.booleans(),
    _INT,
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.lists(st.one_of(_INT, st.text(max_size=2), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=2), _INT, max_size=2),
)


def _slots(node, parent=None, key=None):
    """(container, key) for every node of a document; (None, None) is the root."""
    yield parent, key
    if isinstance(node, (dict, list)):
        for k in list(node) if isinstance(node, dict) else range(len(node)):
            yield from _slots(node[k], node, k)


@st.composite
def _problem_documents(draw):
    """A valid problem document, then up to three of its nodes dropped or
    swapped for another JSON shape (an integer in [-4, 30] among them), so
    a null, a missing key or a value out of range may sit at any node."""
    p = draw(st.sampled_from([2, 3, 5]))
    f = draw(st.integers(1, 3))

    def digits(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=f, max_size=f))

    def character():
        degree = draw(st.integers(1, 4))
        unram = {"degree": degree, "dlog": draw(st.integers(0, p**degree - 2))}
        return {"exps": digits(-4, 30), "unram": unram,
                "cyclotomic": draw(_FLAG), "trivial": draw(_FLAG)}

    theta = digits(0, p - 2)
    doc = {
        "params": {"p": p, "e": draw(st.integers(1, 3)), "f": f},
        "weight": (
            {"r": digits(1, p)} if draw(st.booleans())
            else {"eta": [t + d for t, d in zip(theta, digits(0, p - 1))],
                  "theta": theta}
        ),
        "chi1": character(),
        "chi2": character(),
        "e_m": draw(st.sampled_from([None, 1, p**f - 1])),
        "chi_cyclotomic": draw(_FLAG),
    }
    for _ in range(draw(st.integers(0, 3))):
        parent, key = draw(st.sampled_from(list(_slots(doc))))
        if parent is None:
            return draw(_OTHER_SHAPES)
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_OTHER_SHAPES)
    return doc


@settings(max_examples=400)
@given(_problem_documents())
def test_parse_problem_raises_only_package_errors(doc):
    """Integers stay in [-4, 30], so no document asks for a power larger
    than 30^30: nothing here is slow, whatever reaches the validators."""
    try:
        parse_problem(doc)
    except SerreWeightsError:
        pass


def test_report_bytes_are_deterministic(tmp_path):
    argv = ["lv", "--p", "3", "--e", "2", "--f", "1", "--r", "2",
            "--chi2-exps", "1", "--chi1-exps", "2"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_command(argv + ["--out", str(a)]) == 0
    assert run_command(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_covers_the_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_command(["sweep", "--p-max", "2", "--e-max", "2", "--f-max", "2",
                        "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,e,f,chi_sig,r,t,s,xi,|J|,sum|I|,ok"
    assert len(lines) == 1 + 28
    assert all(row.endswith(",1") for row in lines[1:])


def test_verify_independent_of_jobs(tmp_path, monkeypatch):
    """The pool path, fed lazily, reports the same bytes as one process."""
    monkeypatch.setattr(io_cli.os, "cpu_count", lambda: 2)
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    base = ["verify", "--p-max", "3", "--e-max", "2", "--f-max", "2", "--with-oracle"]
    assert run_command(base + ["--jobs", "1", "--out", str(one)]) == 0
    assert run_command(base + ["--jobs", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_sweep_independent_of_jobs(tmp_path):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    base = ["sweep", "--p-max", "2", "--e-max", "2", "--f-max", "2"]
    assert run_command(base + ["--jobs", "1", "--out", str(one)]) == 0
    assert run_command(base + ["--jobs", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_verify_small_grid(capsys):
    code, doc = run_json(
        capsys, ["verify", "--p-max", "2", "--e-max", "1", "--f-max", "1"]
    )
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["pair_instances"] > 0
    names = [prop["name"] for prop in doc["properties"]]
    assert "xi_congruence" in names
    assert all(prop["failures"] == 0 for prop in doc["properties"])


def test_verify_reports_mutations(capsys, monkeypatch):
    real = io_cli.ts_profile

    def corrupted(params, weight_r, chi1, chi2):
        profile = real(params, weight_r, chi1, chi2)
        return profile._replace(xi=(profile.xi[0] + 1,) + profile.xi[1:])

    # p = 2, f = 1 has tame order 1, where every congruence is vacuous, so
    # the grid must include p = 3 cells for the corruption to be visible
    monkeypatch.setattr(io_cli, "ts_profile", corrupted)
    code, doc = run_json(
        capsys, ["verify", "--p-max", "3", "--e-max", "1", "--f-max", "1"]
    )
    assert code == 1
    assert doc["status"] == "failed"
    by_name = {prop["name"]: prop for prop in doc["properties"]}
    assert by_name["xi_congruence"]["failures"] > 0
    assert by_name["xi_congruence"]["first_counterexample"]


@pytest.mark.parametrize("total_in_step, failing", [
    (True, {"dimension_sum", "jump_size"}),
    (False, {"jump_size"}),
])
def test_verify_reports_jump_profile_mutations(
    capsys, monkeypatch, total_in_step, failing
):
    """verify's character suite reads the jumps from ``_jump_levels``, whose
    levels and total ``jump_profile`` also checks, so only a seam shows that
    verify reports dimension_sum and jump_size: one interior jump a
    dimension too large, with the total raised to match or not."""
    real = io_cli._jump_levels

    def corrupted(params, chi):
        levels, total = real(params, chi)
        levels = list(levels)
        k = next(k for k, (n, _) in enumerate(levels) if n > 0)  # interior
        levels[k] = (levels[k][0], levels[k][1] + 1)
        return tuple(levels), total + total_in_step

    monkeypatch.setattr(io_cli, "_jump_levels", corrupted)
    code, doc = run_json(
        capsys, ["verify", "--p-max", "3", "--e-max", "1", "--f-max", "2"]
    )
    assert code == 1
    by_name = {prop["name"]: prop for prop in doc["properties"]}
    assert {name for name, prop in by_name.items() if prop["failures"]} == failing
    for name in failing:
        assert by_name[name]["first_counterexample"]


def test_character_suite_builds_no_fraction(monkeypatch):
    """``_character_checks`` reads every jump level as an integer numerator
    over p^f - 1: with ``Fraction`` counted where the suite and
    ``cohomology`` name it, a pass over every character of some cells,
    trivial and cyclotomic ones among them, builds none, while one
    ``jump_profile`` call does."""
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return Fraction(*args, **kwargs)

    for module in (io_cli, serreweights.cohomology):
        monkeypatch.setattr(module, "Fraction", Counted)
    for cell in ((2, 2, 2), (3, 2, 2), (5, 1, 3)):
        assert io_cli._verify_character_cell(cell) == []
    assert built == []
    params = FieldParams(3, 2, 1)
    serreweights.jump_profile(params, character(params, (2,), cyclotomic=True))
    assert built


def _window_off_by_one(real):
    def corrupted(params, chi, j):
        return real(params, chi, j) + (j == 0)
    return corrupted


def _without_last_alpha(real):
    def corrupted(params, chi):
        labels = list(real(params, chi))
        alphas = [k for k, label in enumerate(labels) if label.is_alpha]
        if alphas:
            del labels[alphas[-1]]
        return tuple(labels)
    return corrupted


def _twisted_label_dropped(real):
    def corrupted(params, weight, chi1, chi2, *rest, **kwargs):
        result = real(params, weight, chi1, chi2, *rest, **kwargs)
        if any(weight.theta):
            return result._replace(labels=result.labels[:-1])
        return result
    return corrupted


@pytest.mark.parametrize("seam, corrupt, failing", [
    ("window_cardinality", _window_off_by_one, {"window_count": 16}),
    ("w_prime", lambda real: lambda params, chi: real(params, chi)[:-1],
     {"w_prime_cardinality": 16}),
    ("basis_labels", _without_last_alpha,
     {"basis_cardinality": 16, "labels_within_basis": 23}),
    ("l_v_ah", _twisted_label_dropped, {"twist_invariance": 1}),
], ids=["window_count", "w_prime_cardinality", "basis_labels", "twist_invariance"])
def test_verify_reports_count_and_label_mutations(
    capsys, monkeypatch, seam, corrupt, failing
):
    """Each corrupted helper fails exactly the properties that read it, in
    the number of instances given; the helpers never break on their own,
    so only a seam shows that verify reports them."""
    monkeypatch.setattr(io_cli, seam, corrupt(getattr(io_cli, seam)))
    code, doc = run_json(
        capsys, ["verify", "--p-max", "3", "--e-max", "1", "--f-max", "2"]
    )
    assert code == 1
    by_name = {prop["name"]: prop for prop in doc["properties"]}
    assert {
        name: prop["failures"] for name, prop in by_name.items() if prop["failures"]
    } == failing
    for name in failing:
        assert by_name[name]["first_counterexample"]


def valid_shift_points(p_max, e_max, f_max):
    """(params, chi2 class, r, m, a valid shift subset) for each grid point
    of p <= p_max that has a shift subset, found from the definitions."""
    for p, e, f in product((2, 3, 5), range(1, e_max + 1), range(1, f_max + 1)):
        if p > p_max:
            continue
        params = FieldParams(p, e, f)
        for cls2 in range(params.tame_order):
            chi2 = character(params, (cls2,) + (0,) * (f - 1))
            m = reduced_exponents(params, chi2)
            for r in product(range(1, p + 1), repeat=f):
                subsets = oracles.valid_shift_subsets(p, e, f, r, m)
                if subsets:
                    yield params, cls2, r, m, subsets[0]


def test_verify_counts_each_failing_instance_once(capsys, monkeypatch):
    """With every s_i one too large, each pair instance with a shift subset
    fails profile_reflection at every index, or is an unexpected_error when
    a later check raises; either way it counts once."""
    real = io_cli.ts_profile

    def corrupted(params, weight_r, chi1, chi2):
        profile = real(params, weight_r, chi1, chi2)
        return profile._replace(s=tuple(si + 1 for si in profile.s))

    monkeypatch.setattr(io_cli, "ts_profile", corrupted)
    code, doc = run_json(
        capsys, ["verify", "--p-max", "3", "--e-max", "1", "--f-max", "2"]
    )
    assert code == 1
    counts = {prop["name"]: prop["failures"] for prop in doc["properties"]}
    shifted = sum(1 for _ in valid_shift_points(3, 1, 2))
    raised = counts.pop("unexpected_error")
    assert counts["profile_reflection"] + raised == shifted
    assert all(count <= shifted - raised for count in counts.values())
    assert counts["profile_membership"] > 0  # some s_i + 1 leave the pool


def test_verify_reports_a_j_min_that_is_not_least(capsys, monkeypatch):
    """With J_min reported as all of [0, f), j_min_least fails at exactly
    the points with a valid shift subset other than the full set, the
    first of them in grid order is its counterexample, and no other
    property moves."""
    real = io_cli.ts_profile

    def full(params, weight_r, chi1, chi2):
        profile = real(params, weight_r, chi1, chi2)
        return profile._replace(j_min=frozenset(range(params.f)))

    monkeypatch.setattr(io_cli, "ts_profile", full)
    code, doc = run_json(
        capsys, ["verify", "--p-max", "3", "--e-max", "1", "--f-max", "2"]
    )
    assert code == 1
    counts = {prop["name"]: prop["failures"] for prop in doc["properties"]}
    firsts = {prop["name"]: prop["first_counterexample"] for prop in doc["properties"]}
    expected, first = 0, None
    for p, e, f in io_cli._grid_cells(3, 1, 2):
        params = FieldParams(p, e, f)
        for cls2 in range(params.tame_order):
            m = reduced_exponents(params, character(params, (cls2,) + (0,) * (f - 1)))
            for r in product(range(1, p + 1), repeat=f):
                subsets = oracles.valid_shift_subsets(p, e, f, r, m)
                if any(len(subset) < f for subset in subsets):
                    expected += 1
                    first = first or f"p={p} e={e} f={f} chi2_class={cls2} r={r}"
    assert counts.pop("j_min_least") == expected > 0
    assert firsts.pop("j_min_least") == first == "p=2 e=1 f=1 chi2_class=0 r=(1,)"
    assert all(count == 0 for count in counts.values())
    assert all(where is None for where in firsts.values())


def test_a_label_dropped_from_j_v_ah_leaves_l_v_ah_and_lv(capsys, monkeypatch):
    """The benchmark's self-test breaks the package by rebinding
    ``serre_basis.j_v_ah`` to drop the smallest label, and expects every
    report to lose it: ``l_v_ah`` and the ``lv`` command read the route at
    call time."""
    argv = ["lv", "--p", "3", "--e", "3", "--f", "1", "--r", "2",
            "--chi1-exps", "2", "--chi2-exps", "0"]
    problem = parse_problem(
        {"params": {"p": 3, "e": 3, "f": 1}, "weight": {"r": [2]},
         "chi1": {"exps": [2]}, "chi2": {"exps": [0]}}
    )
    lv_args = problem.params, problem.weight, problem.chi1, problem.chi2
    before = l_v_ah(*lv_args).labels
    assert [str(label) for label in before] == [
        "alpha(2,0)", "alpha(4,0)", "alpha(8,0)", "unramified"
    ]
    _, doc = run_json(capsys, argv)
    assert len(doc["labels"]) == len(before)
    real = serre_basis.j_v_ah

    def dropped(*args, **kwargs):
        labels = real(*args, **kwargs)
        return labels - {min(labels, key=serre_basis.BasisLabel.sort_key)}

    monkeypatch.setattr(serre_basis, "j_v_ah", dropped)
    assert l_v_ah(*lv_args).labels == before[1:]
    code, broken = run_json(capsys, argv)
    assert code == 0
    assert broken["labels"] == doc["labels"][1:]
    assert broken["dimension"] == doc["dimension"] - 1


def test_verify_counts_a_lossy_bruteforce_route(capsys, monkeypatch):
    """A brute-force route that drops its greatest label at every e_M fails
    constructive_vs_bruteforce and e_m_independence at exactly the points
    with a nonempty label set, whichever runs of the route are shared."""
    real = io_cli.j_v_ah_bruteforce

    def lossy(params, profile, chi, e_m=None):
        labels = real(params, profile, chi, e_m)
        if not labels:
            return labels
        return labels - {max(labels, key=io_cli.BasisLabel.sort_key)}

    monkeypatch.setattr(io_cli, "j_v_ah_bruteforce", lossy)
    code, doc = run_json(capsys, ["verify", "--p-max", "3", "--e-max", "2", "--f-max", "2"])
    assert code == 1
    by_name = {prop["name"]: prop for prop in doc["properties"]}
    labelled = []
    cells = io_cli._grid_cells(3, 2, 2)
    for spec in (spec for cell in cells for spec in io_cli._cell_instances(cell)):
        try:
            params, _, _, chi, profile = io_cli._grid_instance(spec)
        except io_cli.NoValidShift:
            continue
        if io_cli.j_v_ah(params, profile, chi):
            labelled.append(io_cli._where(spec))
    first = "p=2 e=1 f=1 chi2_class=0 r=(1,)"
    assert (len(labelled), labelled[0]) == (126, first)
    for name in ("constructive_vs_bruteforce", "e_m_independence"):
        assert by_name[name]["failures"] == len(labelled)
        assert by_name[name]["first_counterexample"] == first
    del by_name["constructive_vs_bruteforce"], by_name["e_m_independence"]
    assert all(prop["failures"] == 0 for prop in by_name.values())


VERIFY_PROPERTIES = [
    "dimension_sum", "jump_size", "window_count", "w_prime_cardinality",
    "basis_cardinality", "profile_reflection", "profile_membership",
    "xi_congruence", "j_min_least", "constructive_vs_bruteforce",
    "j_size_equals_interval_total", "labels_within_basis",
    "e_m_independence", "lv_alpha_labels", "twist_invariance",
    "oracle_agreement", "unexpected_error",
]


def test_default_verify_with_oracle_report(capsys):
    code, doc = run_json(capsys, ["verify", "--with-oracle"])
    assert code == 0
    assert [prop["name"] for prop in doc["properties"]] == VERIFY_PROPERTIES
    assert (doc["pair_instances"], doc["twist_instances"], doc["oracle_instances"]) == (
        184, 11, 524
    )
    _, doc = run_json(capsys, ["verify", "--p-max", "2", "--e-max", "1", "--f-max", "1"])
    without_oracle = [name for name in VERIFY_PROPERTIES if name != "oracle_agreement"]
    assert [prop["name"] for prop in doc["properties"]] == without_oracle


def test_grid_chi1_closed_form_matches_the_shift():
    """chi1's class is that of r + e - 1 less chi2's, as the shift gives."""
    points = 0
    for params, cls2, r, m, subset in valid_shift_points(5, 3, 3):
        p, e, f = params.p, params.e, params.f
        t = list(m)
        for i in subset:
            t = [a + b for a, b in zip(t, oracles.shift_vec(p, f, i))]
        diff = [ri + e - 1 - 2 * ti for ri, ti in zip(r, t)]
        want = (cls2 + oracles.exponent_class(p, f, diff)) % params.tame_order
        _, chi1, chi2 = io_cli._grid_pair((p, e, f, cls2, r))
        assert oracles.signature_class(p, f, chi1.signature.a) == want, (params, cls2, r)
        assert oracles.signature_class(p, f, chi2.signature.a) == cls2
        points += 1
    assert points > 1000


# p = 3, e = 1, f = 1, chi2 of class 1 and r = (2,): m = (1,) and its one
# shift m + v_0 = (3,) both miss [0, 0] union [2, 2].
SHIFTLESS = (3, 1, 1, 1, (2,))


def test_grid_pair_tests_for_a_shift_before_building_chi1(monkeypatch):
    """A point with no shift subset raises NoValidShift having built chi2
    alone, and every verify job on it returns no failures."""
    p, e, f, chi2_class, r = SHIFTLESS
    assert oracles.valid_shift_subsets(p, e, f, r, (chi2_class,)) == []
    built = []
    real = io_cli.character

    def counted(params, exps, *args, **kwargs):
        built.append(tuple(exps))
        return real(params, exps, *args, **kwargs)

    monkeypatch.setattr(io_cli, "character", counted)
    with pytest.raises(io_cli.NoValidShift):
        io_cli._grid_pair(SHIFTLESS)
    assert built == [(chi2_class,)]
    assert io_cli._verify_pair_instance(SHIFTLESS) == []
    assert io_cli._verify_twist_instance((SHIFTLESS, (1,))) == []
    for mu in io_cli._ORACLE_MUS[p]:
        assert io_cli._verify_oracle_instance((SHIFTLESS, mu)) == []


@pytest.mark.parametrize("weight, flags, beside", [
    ({"r": [2], "eta": [9], "theta": [7]}, ["--r", "2", "--eta", "9", "--theta", "7"],
     ".weight.eta, .weight.theta"),
    ({"r": [2], "eta": [9]}, ["--r", "2", "--eta", "9"], ".weight.eta"),
    ({"r": [2], "theta": [0]}, ["--r", "2", "--theta", "0"], ".weight.theta"),
], ids=["eta-theta", "eta", "theta"])
def test_weight_r_beside_eta_or_theta_exits_2(capsys, tmp_path, weight, flags, beside):
    """r and (eta, theta) are two spellings of one weight; given together,
    neither is silently dropped: both inputs exit 2 and name the paths."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_doc((3, 1, 1), weight, [2], [1])))
    pair = ["--chi1-exps=2", "--chi2-exps=1"]
    for argv in (["lv", *_flags((3, 1, 1), *flags, *pair)],
                 ["lv", "--problem", str(path)]):
        assert run_command(argv) == 2
        assert capsys.readouterr() == (
            "", f"invalid input: .weight.r given beside {beside}\n"
        )


GRID_FLAGS = ["--p-max", "2", "--e-max", "1", "--f-max", "1"]


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_invalid_input(capsys, command, jobs):
    assert run_command([command] + GRID_FLAGS + ["--jobs", jobs]) == 2
    assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("limit", ["-1", "-5"])
def test_negative_max_instances_is_invalid_input(capsys, command, limit):
    assert run_command([command] + GRID_FLAGS + ["--max-instances", limit]) == 2
    assert capsys.readouterr().err.startswith("invalid input: --max-instances")


def test_jobs_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(io_cli.os, "cpu_count", lambda: 3)
    assert [io_cli._worker_count(j) for j in (1, 2, 3, 4, 10**6)] == [1, 2, 3, 3, 3]
    monkeypatch.setattr(io_cli.os, "cpu_count", lambda: None)
    assert io_cli._worker_count(8) == 1


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_jobs_above_cpu_count_start_no_pool_on_one_cpu(capsys, monkeypatch, command):
    """On one CPU a large --jobs clamps to 1, which runs in this process."""
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(io_cli.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert run_command([command] + GRID_FLAGS + ["--jobs", "64"]) == 0
    capsys.readouterr()


def test_verify_counts_a_lossy_oracle_route(capsys, monkeypatch):
    """An oracle route that drops its greatest label whenever chi1/chi2 has a
    nontrivial unramified part fails oracle_agreement once per (point, part)
    with a nonempty label set and such a part, under that part's where text."""
    real = io_cli.rederive_jvah

    def lossy(params, profile, chi, e_m=None):
        labels = real(params, profile, chi, e_m)
        if not labels or chi.unram.is_trivial(params.p):
            return labels
        return labels - {max(labels, key=io_cli.BasisLabel.sort_key)}

    monkeypatch.setattr(io_cli, "rederive_jvah", lossy)
    code, doc = run_json(capsys, ["verify", "--with-oracle"])
    assert code == 1
    by_name = {prop["name"]: prop for prop in doc["properties"]}
    assert doc["oracle_instances"] == 524
    failing = []
    for spec in (spec for cell in io_cli._grid_cells(3, 2, 2)
                 for spec in io_cli._cell_instances(cell)):
        try:
            params, _, _, chi, profile = io_cli._grid_instance(spec)
        except io_cli.NoValidShift:
            continue
        if io_cli.j_v_ah(params, profile, chi):
            failing += [
                f"{io_cli._where(spec)} mu={mu.order_field_degree}:{mu.dlog}"
                for mu in io_cli._ORACLE_MUS[params.p]
                if not mu.is_trivial(params.p)
            ]
    first = "p=2 e=1 f=1 chi2_class=0 r=(1,) mu=2:1"
    assert (len(failing), failing[0]) == (226, first)
    assert by_name["oracle_agreement"]["failures"] == len(failing)
    assert by_name["oracle_agreement"]["first_counterexample"] == first
    del by_name["oracle_agreement"]
    assert all(prop["failures"] == 0 for prop in by_name.values())


def test_verify_reports_a_shared_step_error_once_per_oracle_part(capsys, monkeypatch):
    """An error of the profile, which every unramified part of a point
    shares, is an unexpected_error of the pair job and of each oracle part,
    each under its own where text."""
    spec = (3, 1, 1, 0, (1,))
    params, _, chi2 = io_cli._grid_pair(spec)
    target = (params, spec[4], chi2.signature)
    real = io_cli.ts_profile

    def broken(at, weight_r, c1, c2):
        if (at, tuple(weight_r), c2.signature) == target:
            raise io_cli.InternalInvariantViolation("planted")
        return real(at, weight_r, c1, c2)

    found = []
    real_mapped = io_cli._mapped

    def recorded(jobs, *maps):
        for failures in real_mapped(jobs, *maps):
            found.extend(failures)
            yield failures

    monkeypatch.setattr(io_cli, "ts_profile", broken)
    monkeypatch.setattr(io_cli, "_mapped", recorded)
    code, doc = run_json(capsys, [
        "verify", "--p-max", "3", "--e-max", "1", "--f-max", "1",
        "--with-oracle", "--jobs", "1",
    ])
    assert code == 1
    error = "InternalInvariantViolation('planted')"
    assert found == [("unexpected_error", text) for text in (
        f"p=3 e=1 f=1 chi2_class=0 r=(1,): {error}",
        f"p=3 e=1 f=1 chi2_class=0 r=(1,) mu=1:0: {error}",
        f"p=3 e=1 f=1 chi2_class=0 r=(1,) mu=1:1: {error}",
        f"p=3 e=1 f=1 chi2_class=0 r=(1,) mu=2:2: {error}",
    )]
    by_name = {prop["name"]: prop["failures"] for prop in doc["properties"]}
    assert by_name.pop("unexpected_error") == 4
    assert not any(by_name.values())


# The report of the verify_grid benchmark workload: 1 995 bytes.
VERIFY_GRID_SHA256 = "6963d61459afba843672e7e3cf177cecfde206e2da922d0387a228666535a643"


# The memos in front of the record builders, and the package's other caches.
MEMOS = (
    tame_chars._character, tame_chars._char_quotient, weight_lattice._ts_profile,
    weight_lattice._least_shift,
)
OTHER_CACHES = (tame_chars._derived, tame_chars._signature_at_offset)


def test_verify_grid_report_bytes_are_pinned(capsys):
    """A speed-up of any verify route must leave this report byte-identical,
    on a cold call (every cache cleared) and on a warm one after it.  Each
    memo finds as much on the second call as on the first: nothing carries
    over from one call to the next."""
    for cache in MEMOS + OTHER_CACHES:
        cache.cache_clear()
    counts = []
    for _ in range(2):
        before = [memo.cache_info() for memo in MEMOS]
        code = run_command([
            "verify", "--p-max", "5", "--e-max", "3", "--f-max", "3",
            "--with-oracle", "--jobs", "1", "--max-instances", "10000",
        ])
        out = capsys.readouterr().out.encode()
        assert code == 0
        assert (len(out), hashlib.sha256(out).hexdigest()) == (1995, VERIFY_GRID_SHA256)
        counts.append([
            (info.hits - old.hits, info.misses - old.misses)
            for old, info in zip(before, (memo.cache_info() for memo in MEMOS))
        ])
    assert counts[0] == counts[1]
    assert all(hits > 0 for hits, _ in counts[0])


def test_patched_ts_profile_takes_effect_after_a_cached_call(monkeypatch):
    """The memo sits behind the public name, so a seam rebound after a
    cached call is still the one that answers."""
    spec = (3, 2, 2, 4, (1, 2))
    *_, profile = io_cli._grid_instance(spec)
    assert io_cli._grid_instance(spec)[4] is profile  # served by the memo
    real = io_cli.ts_profile

    def corrupted(params, weight_r, chi1, chi2):
        found = real(params, weight_r, chi1, chi2)
        return found._replace(xi=(found.xi[0] + 1,) + found.xi[1:])

    monkeypatch.setattr(io_cli, "ts_profile", corrupted)
    assert io_cli._grid_instance(spec)[4].xi[0] == profile.xi[0] + 1


@pytest.mark.parametrize("flags, message", [
    (["--p-max", "1"], "--p-max must be >= 2, got 1"),
    (["--p-max", "20"], "--p-max must be <= 13, got 20"),
    (["--p-max", "3", "--e-max", "0"], "--e-max must be >= 1, got 0"),
    (["--p-max", "2", "--e-max", "1", "--f-max", "0"], "--f-max must be >= 1, got 0"),
], ids=["p-low", "p-high", "e", "f"])
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_grid_bound_outside_the_grid_exits_2(
    capsys, monkeypatch, tmp_path, command, flags, message
):
    """A bound that selects no cell, or primes the grid does not have, is
    invalid input, raised before any cell is listed or --out is created."""

    def no_cells(*args):
        raise AssertionError("a cell was listed")

    monkeypatch.setattr(io_cli, "_grid_cells", no_cells)
    out = tmp_path / "report"
    assert run_command([command] + flags + ["--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"invalid input: {message}\n")
    assert not out.exists()


@pytest.mark.slow
@pytest.mark.parametrize("bounds", [("7", "6", "4"), ("13", "12", "2")], ids=["p7-f4", "p13-e12"])
def test_verify_holds_on_a_stride_sample_of_the_ramified_grid(capsys, bounds):
    """A stride sample of the grids that reach e >= p - 1 at p = 7, f = 4
    and at p = 13, where the whole grid has tens of millions of points."""
    p_max, e_max, f_max = bounds
    code, doc = run_json(capsys, [
        "verify", "--p-max", p_max, "--e-max", e_max, "--f-max", f_max,
        "--with-oracle", "--jobs", "1", "--max-instances", "5000",
    ])
    assert (code, doc["status"]) == (0, "ok")
    assert 0 < doc["pair_instances"] <= 5000


def test_grid_runs_every_prime_up_to_13(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_command(["sweep", "--p-max", "13", "--e-max", "1", "--f-max", "1",
                        "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert sorted({int(row.split(",")[0]) for row in rows}) == [2, 3, 5, 7, 11, 13]
    assert len(rows) == sum((p - 1) * p for p in (2, 3, 5, 7, 11, 13))


@pytest.mark.parametrize("p_max, e_max, f_max, limit", [
    (5, 3, 3, 10000), (3, 2, 2, 0), (2, 1, 1, 0), (3, 2, 3, 7),
    (5, 2, 2, 1), (13, 1, 2, 500), (7, 2, 3, 333), (3, 1, 2, 0),
])
def test_grid_builds_only_the_kept_points(p_max, e_max, f_max, limit):
    """The points ``_grid``'s walk builds are every stride-th of the whole
    grid, listed cell by cell, chi2 class by class, r in lexicographic
    order, and its count is theirs."""
    args = argparse.Namespace(p_max=p_max, e_max=e_max, f_max=f_max, max_instances=limit)
    cells = io_cli._grid_cells(p_max, e_max, f_max)
    specs = [
        (p, e, f, chi2_class, r)
        for p, e, f in cells
        for chi2_class in range(p**f - 1)
        for r in product(range(1, p + 1), repeat=f)
    ]
    assert [spec for cell in cells for spec in io_cli._cell_instances(cell)] == specs
    if limit and len(specs) > limit:
        specs = specs[::-(-len(specs) // limit)]
    found_cells, kept, walk = io_cli._grid(args)
    assert (found_cells, kept, list(walk())) == (cells, len(specs), specs)
    assert list(walk(17)) == specs[::17]  # the twist sample


def test_verify_twists_every_17th_kept_point(capsys, monkeypatch):
    """The twist jobs are the kept points 0, 17, 34, ..., the k-th twisted
    by theta_i = (k + i) mod (p - 1), and theta = 0 at p = 2."""
    jobs = []
    real = io_cli._verify_twist_instance

    def recorded(job):
        jobs.append(job)
        return real(job)

    monkeypatch.setattr(io_cli, "_verify_twist_instance", recorded)
    code, doc = run_json(capsys, [
        "verify", "--p-max", "7", "--e-max", "1", "--f-max", "2", "--max-instances", "300",
    ])
    assert code == 0
    # 17 = 1 mod 4, so the index would not matter at p <= 5 alone
    args = argparse.Namespace(p_max=7, e_max=1, f_max=2, max_instances=300)
    specs = list(io_cli._grid(args)[2]())
    want = [
        (spec, tuple((k + i) % (spec[0] - 1) if spec[0] > 2 else 0 for i in range(spec[2])))
        for k, spec in list(enumerate(specs))[::17]
    ]
    assert (len(specs), doc["twist_instances"]) == (283, 17)
    assert jobs == want


def test_sweep_exits_1_when_a_row_fails(tmp_path, monkeypatch):
    """A brute-force route that drops its greatest label fails exactly the
    rows with a nonempty label set, and sweep still writes every row."""
    real = io_cli.j_v_ah_bruteforce

    def lossy(params, profile, chi, e_m=None):
        labels = real(params, profile, chi, e_m)
        return labels - {max(labels, key=io_cli.BasisLabel.sort_key)} if labels else labels

    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--p-max", "2", "--e-max", "2", "--f-max", "2", "--out", str(out)]
    assert run_command(argv) == 0
    rows = out.read_text().splitlines()[1:]
    monkeypatch.setattr(io_cli, "j_v_ah_bruteforce", lossy)
    assert run_command(argv) == 1
    failed = out.read_text().splitlines()[1:]
    assert len(failed) == len(rows) == 28
    labelled = [row.split(",")[8] != "0" for row in rows]
    assert [row.endswith(",0") for row in failed] == labelled
    assert any(labelled)


def test_grid_builds_a_point_only_when_the_walk_reads_it(monkeypatch):
    """``_grid`` builds no point; reading k points of a walk builds k."""
    built = []
    real = io_cli._cell_spec

    def counted(cell, index):
        built.append((cell, index))
        return real(cell, index)

    monkeypatch.setattr(io_cli, "_cell_spec", counted)
    args = argparse.Namespace(p_max=7, e_max=2, f_max=2, max_instances=300)
    cells, kept, walk = io_cli._grid(args)
    assert (len(cells), kept) == (16, 296)
    points = walk()
    assert built == []
    for k in (1, 5, 100):
        assert len(list(islice(walk(), k))) == k
        assert len(built) == k
        built.clear()
    assert sum(1 for _ in points) == len(built) == kept
