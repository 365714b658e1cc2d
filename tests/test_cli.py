import argparse
import ctypes
import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import crisscross
import crisscross.cli as cli
from crisscross import eigsolve
from crisscross.cli import (
    ConfigError,
    StudyConfig,
    _build_parser,
    build_mesh,
    cmd_compare,
    cmd_converge,
    cmd_eig,
    main,
)
from crisscross.audit import exactness_check
from crisscross.eigsolve import Spectrum, _pencil, dense_gevp

PI = math.pi


# ---------------------------------------------------------------- config


def test_config_validation():
    StudyConfig(levels=[2, 4, 8]).validate()
    with pytest.raises(ConfigError):
        StudyConfig(domain="disk").validate()
    with pytest.raises(ConfigError):
        StudyConfig(degree=4).validate()
    with pytest.raises(ConfigError):
        StudyConfig(formulation="fem1", degree=1).validate()
    with pytest.raises(ConfigError):
        StudyConfig(formulation="fem1", backend="lanczos").validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=[4, 4]).validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=[8, 4]).validate()
    with pytest.raises(ConfigError):
        StudyConfig(n_eigs=0).validate()


# exit code and stderr "error:" line of eig and compare at degrees 0 to 5,
# --levels 2 --neigs 2: which (form, degree, backend) triples run, as the
# rules stood when they moved into one table (eigsolve._FORMS)
_OK = (0, None)
_DEGREE = (2, "error: degree must be 1, 2 or 3")
_FEM1_DEGREE = (2, "error: fem1 requires degree 2 or 3")
_FEM1_LANCZOS = (2, "error: fem1 has no shift-invert path; use --backend "
                    "dense or --form fem2")
_COMPARE_DEGREE = (2, "error: compare requires degree 2 or 3")
_RULES = {
    ("fem1", "dense"): [_DEGREE, _FEM1_DEGREE, _OK, _OK, _DEGREE, _DEGREE],
    ("fem1", "lanczos"): [_DEGREE, _FEM1_DEGREE, _FEM1_LANCZOS,
                          _FEM1_LANCZOS, _DEGREE, _DEGREE],
    **{(form, backend): [_DEGREE, _OK, _OK, _OK, _DEGREE, _DEGREE]
       for form in ("fem2", "primal") for backend in ("dense", "lanczos")},
    ("compare", None): [_DEGREE, _COMPARE_DEGREE, _OK, _OK, _DEGREE, _DEGREE],
}


@pytest.mark.parametrize("form, backend, k", [
    (form, backend, k) for form, backend in _RULES for k in range(6)])
def test_form_degree_backend_rules(capsys, form, backend, k):
    argv = (["compare"] if form == "compare"
            else ["eig", "--form", form, "--backend", backend])
    code = main(argv + ["--degree", str(k), "--levels", "2", "--neigs", "2"])
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    expected_code, expected_error = _RULES[form, backend][k]
    assert code == expected_code
    assert errors == ([] if expected_error is None else [expected_error])


def test_invalid_config_exit_code(capsys):
    assert main(["eig", "--degree", "9", "--levels", "4"]) == 2
    assert main(["eig", "--levels", "8,4"]) == 2
    assert main(["eig", "--levels", "x"]) == 2
    assert main(["converge", "--domain", "lshape", "--levels", "2,4"]) == 2
    assert main(["eig", "--form", "fem1", "--levels", "4",
                 "--backend", "lanczos"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("sigma, code", [
    ("-1", 2), ("0", 2), ("nan", 2), ("3", 3),
], ids=["-1", "0", "nan", "3"])
def test_non_positive_sigma_rejected(tmp_path, capsys, sigma, code):
    # sigma = -1 used to print three kernel zeros as the spectrum; sigma = 3
    # lies above lambda_1 ~ 2 and printed 5.0007 as lambda_1, which the
    # inertia count of the shift-invert factor now refuses
    out = tmp_path / "lz.csv"
    assert main(["eig", "--degree", "2", "--levels", "8", "--backend",
                 "lanczos", "--sigma", sigma, "--out", str(out)]) == code
    assert not out.exists()
    assert "sigma" in capsys.readouterr().err


def test_parser_built_once_and_reused_without_state():
    # main() reuses one parser per process; a parse leaves no value behind
    parser = _build_parser()
    assert _build_parser() is parser
    parser.parse_args(["audit", "--degree", "3", "--levels", "4,8"])
    args = parser.parse_args(["eig"])
    assert (args.command, args.degree, args.levels) == ("eig", 2, "8")


# Run in a fresh interpreter: free heap memory left by earlier tests could
# hold the array without a mapping whatever the threshold.
_MAPPING_PROBE = """
import ctypes
import numpy as np
from crisscross.cli import main

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
assert main(["eig", "--degree", "2", "--levels", "1", "--neigs", "1"]) == 0
freed = np.ones(24 << 17)
del freed
mapped = mallinfo2().hblkhd
held = np.ones(20 << 17)
print(mallinfo2().hblkhd - mapped >= held.nbytes)
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and hasattr(ctypes.CDLL(None), "mallinfo2")),
                    reason="needs glibc's mallinfo2")
def test_main_gives_large_arrays_their_own_mapping():
    # glibc raises its mmap threshold to the size of a freed mapped block, so
    # the 20 MiB array would come from the heap after the 24 MiB one is
    # freed; main() pins the threshold, so it is mapped on its own
    src = os.path.dirname(os.path.dirname(crisscross.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _MAPPING_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "True"


def test_cli_import_leaves_scipy_io_unloaded():
    # only --export-matrices needs scipy.io; write_matrix_market imports it
    src = os.path.dirname(os.path.dirname(crisscross.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, crisscross.cli; print('scipy.io' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "False"


_SOLVER_PROBE = """
import contextlib, io, sys
from crisscross.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {argvs!r}:
        print(main(argv), 'scipy.sparse.linalg' in sys.modules,
              file=sys.stderr)
"""


def _solver_loaded_after(argvs, cwd):
    # (exit code, whether scipy.sparse.linalg is loaded) after each command,
    # run in order in one fresh interpreter
    src = os.path.dirname(os.path.dirname(crisscross.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", _SOLVER_PROBE.format(argvs=argvs)], env=env,
        cwd=cwd, capture_output=True, text=True, check=True)
    return [tuple(line.split()) for line in run.stderr.splitlines()]


def test_dense_runs_leave_the_sparse_solver_unloaded(tmp_path):
    # ARPACK and SuperLU load where a shifted factor is built, not before
    dense = [["eig", "--form", form, "--degree", "2", "--levels", "2",
              "--neigs", "3"] for form in ("fem1", "fem2", "primal")]
    dense += [["converge", "--degree", "2", "--levels", "2,4"],
              ["compare", "--domain", "lshape", "--degree", "2",
               "--levels", "2", "--neigs", "3"],
              ["mesh", "--levels", "2"]]
    assert (_solver_loaded_after(dense, tmp_path)
            == [("0", "False")] * len(dense))
    lanczos = ["eig", "--degree", "2", "--levels", "4", "--neigs", "3",
               "--backend", "lanczos"]
    audit = ["audit", "--degree", "2", "--levels", "2"]
    for argv in (lanczos, audit):
        assert _solver_loaded_after([argv], tmp_path) == [("0", "True")]


def test_parse_errors_exit_2(capsys):
    # argparse's errors take main's exit-2 path instead of SystemExit
    for argv, flag in (
        (["eig", "--no-such-option"], "--no-such-option"),
        (["eig", "--domain", "disk"], "--domain"),
        (["eig", "--degree", "two"], "--degree"),
        (["solve"], "command"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and flag in captured.err
        assert captured.out == ""
    with pytest.raises(SystemExit) as exc:
        main(["eig", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()


# The fields each command does not read, with a non-default value and that
# value on the command line.
UNREAD = {
    "eig": ("expect_rate",),
    "converge": ("export_mesh", "export_matrices"),
    "audit": ("formulation", "backend", "sigma", "exact", "expect_rate", "out",
              "export_mesh", "export_matrices"),
    "compare": ("exact", "expect_rate", "export_mesh", "export_matrices"),
    "mesh": ("formulation", "n_eigs", "backend", "sigma", "exact",
             "expect_rate", "export_mesh", "export_matrices"),
}
NON_DEFAULT = {
    "formulation": ("--form", "primal", "primal"),
    "n_eigs": ("--neigs", 5, "5"),
    "backend": ("--backend", "lanczos", "lanczos"),
    "sigma": ("--sigma", 0.5, "0.5"),
    "exact": ("--exact", [1.0], "1.0"),
    "expect_rate": ("--expect-rate", (3.9, 4.1), "3.9:4.1"),
    "out": ("--out", "x.csv", "x.csv"),
    "export_mesh": ("--export-mesh", "m.txt", "m.txt"),
    "export_matrices": ("--export-matrices", "mat", "mat"),
}
UNREAD_PAIRS = [(cmd, name) for cmd, names in UNREAD.items() for name in names]


def _subparser_flags() -> dict:
    sub, = (a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return {cmd: {flag for a in p._actions if a.dest != "help"
                  for flag in a.option_strings}
            for cmd, p in sub.choices.items()}


def test_each_command_registers_the_options_it_reads():
    flags = _subparser_flags()
    assert {cmd: len(f) for cmd, f in flags.items()} == {
        "eig": 13, "converge": 12, "audit": 6, "compare": 10, "mesh": 6}
    every = flags["eig"] | flags["converge"]
    assert len(every) == len(dataclasses.fields(StudyConfig)) == 14
    for cmd, names in UNREAD.items():
        assert flags[cmd] == every - {NON_DEFAULT[n][0] for n in names}, cmd


@pytest.mark.parametrize("command, name", UNREAD_PAIRS)
def test_validate_refuses_fields_the_command_does_not_read(command, name):
    flag, value, _ = NON_DEFAULT[name]
    config = StudyConfig(levels=[1], **{name: value})
    with pytest.raises(ConfigError, match=f"{command} does not read {flag}"):
        cli._validate(config, command)


@pytest.mark.parametrize("command, name", UNREAD_PAIRS)
def test_cli_refuses_options_the_command_does_not_read(
        tmp_path, monkeypatch, capsys, command, name):
    flag, _, text = NON_DEFAULT[name]
    monkeypatch.chdir(tmp_path)          # mesh writes mesh.txt by default
    assert main([command, "--levels", "1", flag, text]) == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_benchmark_argvs_parse_and_validate(monkeypatch):
    # the benchmark driver's commands must stay valid; mesh --degree and
    # compare --form are kept for them
    run_py = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    if not run_py.exists():
        pytest.skip("perfbench/ is absent")
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends to it
    had_check = "check" in sys.modules
    spec = importlib.util.spec_from_file_location("bench_run", run_py)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    if not had_check:
        sys.modules.pop("check", None)
    argvs = []
    for workload in run.WORKLOADS:
        for seed in (1, 2, 3):
            for cfg in run.workload(workload, seed):
                suffix = run.output_suffix(cfg)
                argvs.append(run.to_argv(cfg, suffix and "out" + suffix))
    assert len(argvs) == 345
    parser = _build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        cli._validate(cli._config_from_args(args), args.command)


# ---------------------------------------------------------------- eig


def test_cmd_eig_square_csv(tmp_path, capsys):
    out = tmp_path / "eig.csv"
    code = main([
        "eig", "--domain", "square", "--degree", "2", "--levels", "4",
        "--neigs", "5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "level,h,index,lambda_h,exact,abs_error,rate"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "4"
    assert float(first[1]) == pytest.approx(PI / 4)
    assert first[2] == "1"
    assert float(first[4]) == 2.0
    assert float(first[5]) == pytest.approx(float(first[3]) - 2.0)
    assert first[6] == ""  # no rate on a single level
    capsys.readouterr()


def test_cmd_eig_requires_single_level():
    with pytest.raises(ConfigError):
        cmd_eig(StudyConfig(levels=[2, 4]))


def test_cmd_eig_lshape_no_exact(tmp_path, capsys):
    out = tmp_path / "l.csv"
    code = main([
        "eig", "--domain", "lshape", "--degree", "2", "--levels", "2",
        "--neigs", "3", "--out", str(out),
    ])
    assert code == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[4] == "" and row[5] == ""
    capsys.readouterr()


def test_bit_reproducible_output(tmp_path, capsys):
    args = ["eig", "--domain", "square-perturbed", "--degree", "2",
            "--levels", "3", "--neigs", "4", "--seed", "9", "--perturb", "0.2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("form, names", [
    ("fem2", ("_B", "_A")), ("fem1", ("_B", "_A")), ("primal", ("_K", "_M")),
], ids=["fem2", "fem1", "primal"])
def test_exports(tmp_path, capsys, form, names):
    mesh_path = tmp_path / "mesh.txt"
    stem = tmp_path / "mat"
    code = main([
        "eig", "--form", form, "--levels", "2", "--neigs", "2",
        "--export-mesh", str(mesh_path), "--export-matrices", str(stem),
    ])
    assert code == 0
    assert mesh_path.read_text().startswith("crisscross-mesh v1")
    pencil = _pencil(form, build_mesh(StudyConfig(), 2), 2)[:2]
    for name, mat in zip(names, pencil):
        back = scipy.io.mmread(str(stem) + name + ".mtx").tocsr()
        assert back.shape == mat.shape
        assert (back != sp.csr_matrix(mat)).nnz == 0   # every entry exact
    capsys.readouterr()


@pytest.mark.parametrize("form, names", [
    ("fem2", ("_B", "_A")), ("fem1", ("_B", "_A")), ("primal", ("_K", "_M")),
], ids=["fem2", "fem1", "primal"])
def test_exported_pencil_reproduces_the_table(tmp_path, capsys, form, names):
    # the exported pair is the pencil that was solved: its spectrum after
    # the kernel is the CSV's lambda_h column
    stem, out = tmp_path / "mat", tmp_path / "eig.csv"
    assert main(["eig", "--form", form, "--levels", "2", "--neigs", "6",
                 "--out", str(out), "--export-matrices", str(stem)]) == 0
    lambdas = [float(line.split(",")[3])
               for line in out.read_text().strip().split("\n")[1:]]
    B, A = (scipy.io.mmread(str(stem) + name + ".mtx").tocsr()
            for name in names)
    spec = dense_gevp(B, A)
    w = spec.eigenvalues[spec.zero_count:][:len(lambdas)]
    np.testing.assert_allclose(w, lambdas, rtol=1e-12, atol=0)
    capsys.readouterr()


def test_mesh_refuses_several_levels(tmp_path, capsys):
    # mesh writes one mesh; it used to write the first level's and exit 0
    out = tmp_path / "m.txt"
    assert main(["mesh", "--levels", "2,4", "--out", str(out)]) == 2
    assert "mesh expects exactly one level" in capsys.readouterr().err
    assert not out.exists()


def test_exact_off_lshape_refused(tmp_path, capsys):
    # the square's targets are known; --exact used to be ignored there
    out = tmp_path / "e.csv"
    for argv in (["eig", "--levels", "2"], ["converge", "--levels", "1,2"]):
        assert main(argv + ["--exact", "9,9,9", "--out", str(out)]) == 2
        assert "--exact needs --domain lshape" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError):
        StudyConfig(domain="square-perturbed", exact=[9.0]).validate()
    StudyConfig(domain="lshape", exact=[9.0]).validate()


@pytest.mark.parametrize("argv, message", [
    (["converge", "--levels", "2,4", "--expect-rate", "5:3"], "--expect-rate"),
    (["converge", "--levels", "2,4", "--expect-rate", "nan:5"],
     "--expect-rate"),
    (["converge", "--levels", "2,4", "--expect-rate", "3:inf"],
     "--expect-rate"),
    (["converge", "--levels", "2,4,6", "--expect-rate", "3:5"],
     "--expect-rate"),
    (["eig", "--domain", "lshape", "--levels", "2", "--exact", "nan,inf"],
     "--exact"),
    (["eig", "--domain", "lshape", "--levels", "2", "--exact", "3.9,inf"],
     "--exact"),
    (["converge", "--domain", "lshape", "--levels", "1,2", "--exact", "0"],
     "--exact"),
    (["eig", "--domain", "lshape", "--levels", "2", "--exact", "9,-1"],
     "--exact"),
], ids=["rate-reversed", "rate-nan", "rate-inf", "rate-not-halving",
        "exact-nan-inf", "exact-inf", "exact-zero", "exact-negative"])
def test_bad_targets_refused(tmp_path, capsys, argv, message):
    # a reversed rate window used to fail the run (exit 1) after solving,
    # and targets that are not finite printed nan and inf columns (exit 0)
    out = tmp_path / "t.csv"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


def test_rows_beyond_the_exact_targets_are_blank(tmp_path, capsys):
    # README's CSV schema: exact and abs_error are empty where no target is
    # known, not nan, in the CSV and in the table
    out = tmp_path / "l.csv"
    assert main(["eig", "--domain", "lshape", "--levels", "2", "--neigs", "3",
                 "--exact", "3.9", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert float(rows[0][4]) == 3.9 and float(rows[0][5]) > 0
    assert [row[4:6] for row in rows[1:]] == [["", ""], ["", ""]]
    table = capsys.readouterr().out
    assert "nan" not in table
    assert [line.split()[0] for line in table.splitlines()[2:]] == [
        "1", "2", "3"]
    assert all(len(line.split()) == 2 for line in table.splitlines()[3:])


def test_perturb_off_perturbed_square_refused(tmp_path, capsys):
    out = tmp_path / "p.csv"
    for argv in (["eig", "--levels", "2", "--out", str(out)],
                 ["mesh", "--domain", "lshape", "--levels", "2",
                  "--out", str(out)]):
        assert main(argv + ["--perturb", "0.2"]) == 2
        assert "--perturb needs --domain square-perturbed" in (
            capsys.readouterr().err)
    assert not out.exists()
    StudyConfig(domain="square-perturbed", perturb=0.2).validate()


@pytest.mark.parametrize("argv", [
    ["eig", "--levels", "1", "--out", "{missing}/x.csv"],
    ["converge", "--levels", "1,2", "--out", "{missing}/x.csv"],
    ["compare", "--levels", "2", "--out", "{missing}/x.csv"],
    ["mesh", "--levels", "1", "--out", "{missing}/m.txt"],
    ["eig", "--levels", "1", "--export-mesh", "{missing}/m.txt"],
    ["eig", "--levels", "1", "--export-matrices", "{missing}/mat"],
], ids=["eig-out", "converge-out", "compare-out", "mesh-out", "export-mesh",
        "export-matrices"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    # a path in a missing directory used to end in a traceback and exit 1
    missing = tmp_path / "missing"
    assert main([arg.format(missing=missing) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not missing.exists()


def test_mesh_subcommand(tmp_path, capsys):
    out = tmp_path / "m.txt"
    assert main(["mesh", "--domain", "lshape", "--levels", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "crisscross-mesh v1"
    V, E, T, Q = (int(t) for t in lines[2].split())
    assert Q == 12 and T == 48 and V - E + T == 1
    capsys.readouterr()


# ---------------------------------------------------------------- converge


def test_cmd_converge_rates(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main([
        "converge", "--domain", "square", "--degree", "2",
        "--levels", "2,4", "--neigs", "2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    # second level rows carry a rate near 4 for mode 1
    row = lines[3].split(",")
    assert row[0] == "4"
    rate = float(row[6])
    assert 3.0 < rate < 5.0
    capsys.readouterr()


def test_cmd_converge_needs_targets():
    with pytest.raises(ConfigError):
        cmd_converge(StudyConfig(domain="lshape", levels=[2, 4]))


def test_cmd_converge_with_explicit_targets(capsys):
    config = StudyConfig(domain="lshape", degree=2, levels=[1, 2],
                         n_eigs=1, exact=[3.9075420860206983])
    report, code = cmd_converge(config)
    assert code == 0
    assert report.rows[1].errors[0] < report.rows[0].errors[0]
    capsys.readouterr()


def test_expect_rate_window_failure(capsys):
    code = main([
        "converge", "--levels", "2,4", "--neigs", "1",
        "--expect-rate", "10:11",
    ])
    assert code == 1
    code = main([
        "converge", "--levels", "2,4", "--neigs", "1",
        "--expect-rate", "3:5",
    ])
    assert code == 0
    capsys.readouterr()


def test_rate_skipped_for_non_halving_levels(capsys):
    config = StudyConfig(levels=[2, 3], n_eigs=1)
    report, code = cmd_converge(config)
    assert code == 0
    assert report.rows[1].rates is None
    capsys.readouterr()


def test_expect_rate_refused_before_any_solve(monkeypatch):
    # the last row of 2,4,6 gets no rate, so any window used to fail only
    # after every level was solved: "nan outside [3.0, 5.0]", exit 1
    def refused(*args, **kwargs):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(cli, "_solve", refused)
    for levels in ([2, 4, 6], [2, 3]):
        with pytest.raises(ConfigError, match="twice the one before it"):
            cmd_converge(StudyConfig(levels=levels, expect_rate=(3.0, 5.0)))


# ---------------------------------------------------------------- audit


def test_cmd_audit_pass(capsys):
    assert main(["audit", "--degree", "2", "--levels", "2"]) == 0
    out = capsys.readouterr().out
    assert "exactness: PASS" in out


def _excesses(out):
    return [int(line.rsplit("=", 1)[1]) for line in out.splitlines()
            if line.startswith("spurious: n=8 tau=")]


def test_cmd_audit_spurious_k1(capsys):
    assert main(["audit", "--degree", "1", "--levels", "4,8"]) == 0
    out = capsys.readouterr().out
    assert "spurious: n=8 tau=6.5 count=4 exact=3 excess=1" in out
    assert _excesses(out) == [0, 1, 1, 1, 3]
    assert out.endswith("spurious: 3 flagged, PASS\n")


def test_cmd_audit_k2_scan_clean(capsys):
    assert main(["audit", "--degree", "2", "--levels", "4,8"]) == 0
    out = capsys.readouterr().out
    assert _excesses(out) == [0] * 5
    assert out.endswith("spurious: 0 flagged, PASS\n")


def test_cmd_audit_negative_excess_is_unresolved(capsys):
    # the k=2 values of the exact double 52 sit above tau=52.5 on n=8: the
    # mesh does not resolve them, so no count there proves anything
    assert main(["audit", "--degree", "2", "--levels", "4,8",
                 "--neigs", "40"]) == 1
    out = capsys.readouterr().out
    assert "spurious: n=8 tau=52.5 count=33 exact=35 excess=-2\n" in out
    assert out.endswith("spurious: unresolved at tau=52.5\n"
                        "spurious: 0 flagged, FAIL\n")


@pytest.mark.parametrize("argv", [
    ["audit", "--levels", "4,8", "--neigs", "1"],
    ["audit", "--degree", "1", "--levels", "2,4", "--neigs", "1"],
])
def test_cmd_audit_refuses_one_eigenvalue(capsys, argv):
    # one exact value leaves no gap to count at, so the verdict would be
    # vacuous: refused before any count
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: spurious counts need --neigs 2 or more\n")


@pytest.mark.parametrize("argv", [
    ["audit", "--levels", "4", "--neigs", "1"],
    ["audit", "--domain", "lshape", "--levels", "1,2", "--neigs", "1"],
])
def test_cmd_audit_one_eigenvalue_without_counts(capsys, argv):
    # no spurious count runs on one level or off the square
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "exactness: PASS" in out and "spurious" not in out


def test_cmd_audit_runs_no_solve(capsys, monkeypatch):
    # the counts need a factor per tau, not a spectrum
    def no_solve(*args, **kwargs):
        raise AssertionError("audit solved a spectrum")

    monkeypatch.setattr(cli, "_solve", no_solve)
    assert main(["audit", "--degree", "1", "--levels", "4,8"]) == 0
    assert "3 flagged, PASS" in capsys.readouterr().out


def test_cmd_audit_lshape_k3(capsys):
    assert main(["audit", "--domain", "lshape", "--degree", "3",
                 "--levels", "1"]) == 0
    out = capsys.readouterr().out
    assert "euler_residual=0 ok=True" in out


def test_cmd_audit_scans_the_square_only(capsys):
    # the exact spectrum is known for the square alone
    assert main(["audit", "--domain", "lshape", "--levels", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "exactness: PASS" in out and "spurious" not in out


@pytest.mark.parametrize("argv, message", [
    (["audit", "--form", "primal", "--levels", "2"],
     "unrecognized arguments: --form"),
    (["audit", "--form", "fem1", "--backend", "lanczos", "--levels", "2"],
     "unrecognized arguments: --form"),
    (["compare", "--form", "fem1", "--levels", "2"],
     "compare runs --form fem2 only"),
    (["compare", "--form", "primal", "--levels", "2"],
     "compare runs --form fem2 only"),
], ids=["audit-primal", "audit-fem1-lanczos", "compare-fem1",
        "compare-primal"])
def test_audit_and_compare_refuse_other_forms(capsys, argv, message):
    # both run fem2 (compare adds primal): audit has no --form, and
    # compare's must be fem2
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["converge", "audit", "compare", "mesh"])
@pytest.mark.parametrize("flag", ["--export-mesh", "--export-matrices"])
def test_exports_outside_eig_refused(tmp_path, capsys, command, flag):
    stem = tmp_path / "x"
    assert main([command, "--levels", "1,2", flag, str(stem)]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["audit", "--degree", "1", "--levels", "8"],
    ["audit", "--domain", "lshape", "--degree", "1", "--levels", "2,4"],
], ids=["one-level", "lshape"])
def test_audit_with_nothing_to_check_refused(capsys, argv):
    # these were refused (exit 2) while degree 1 had no exactness check and
    # no spurious scan runs on them; degree 1 now has its kernel law, so
    # both audit the complex
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "exactness: PASS" in captured.out
    assert "spurious" not in captured.out and captured.err == ""


def test_cmd_audit_counts_beyond_dense_cap(capsys):
    # levels 20 has 6 562 unknowns, above the dense cap; counts take none
    assert main(["audit", "--degree", "2", "--levels", "4,20"]) == 0
    out = capsys.readouterr().out
    assert "exactness: PASS" in out and "0 flagged, PASS" in out


def test_cmd_audit_uncertified_spurious_count_exits_3(capsys, monkeypatch):
    # the first level's kernel count is certified, the next count is not
    inertia = eigsolve._inertia
    calls = []

    def second_uncertified(lu):
        calls.append(lu)
        return inertia(lu) if len(calls) == 1 else None

    monkeypatch.setattr(eigsolve, "_inertia", second_uncertified)
    assert main(["audit", "--degree", "2", "--levels", "2,4"]) == 3
    captured = capsys.readouterr()
    assert "exactness: PASS" in captured.out and "flagged" not in captured.out
    assert captured.err == (
        "solver error: eigenvalue count below sigma=3.5 is uncertified: the "
        "factor of B - sigma*A took an off-diagonal pivot\n")


def test_cmd_eig_uncertified_count_warning(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(eigsolve, "_inertia", lambda lu: None)
    assert main(["eig", "--levels", "4", "--neigs", "3", "--backend",
                 "lanczos", "--out", str(tmp_path / "u.csv")]) == 0
    assert capsys.readouterr().err == (
        "warning: fem2 k=2 on 16 quads: an off-diagonal pivot leaves the "
        "eigenvalue count below sigma uncertified\n")


def test_cmd_audit_uncertified_count_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(eigsolve, "_inertia", lambda lu: None)
    assert main(["audit", "--degree", "2", "--levels", "2"]) == 3
    captured = capsys.readouterr()
    assert "off-diagonal pivot" in captured.err
    assert "PASS" not in captured.out


def test_miscount_fails_the_audit_and_refuses_the_solve(capsys, monkeypatch):
    # one count serves both, under two policies: a count above the kernel
    # law is an audit verdict (FAIL, exit 1) but refuses a Lanczos solve
    count = eigsolve._inertia
    monkeypatch.setattr(eigsolve, "_inertia", lambda lu: count(lu) + 1)
    report = exactness_check(build_mesh(StudyConfig(), 2), 2)
    assert not (report.passed or report.nullity_ok or report.rank_ok)
    assert main(["audit", "--degree", "2", "--levels", "2"]) == 1
    assert "exactness: FAIL" in capsys.readouterr().out
    assert main(["eig", "--levels", "4", "--backend", "lanczos"]) == 3
    assert "inertia check failed" in capsys.readouterr().err


def test_k1_lanczos_count_is_checked(capsys, monkeypatch):
    # degree 1 has a kernel law too, so a count off it refuses the solve
    assert main(["eig", "--degree", "1", "--levels", "8",
                 "--backend", "lanczos"]) == 0
    count = eigsolve._inertia
    monkeypatch.setattr(eigsolve, "_inertia", lambda lu: count(lu) + 1)
    assert main(["eig", "--degree", "1", "--levels", "8",
                 "--backend", "lanczos"]) == 3
    assert "inertia check failed" in capsys.readouterr().err


# ---------------------------------------------------------------- compare


def test_cmd_compare_small_lshape(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    config = StudyConfig(domain="lshape", degree=2, levels=[2], n_eigs=4,
                         out=str(out))
    report, code = cmd_compare(config)
    assert code == 0
    report.write(out)
    assert np.all(report.rows[0].errors >= 0)
    text = capsys.readouterr().out
    assert "lambda_mixed" in text


def test_cmd_compare_rejects_k1():
    with pytest.raises(ConfigError):
        cmd_compare(StudyConfig(degree=1, levels=[2]))


def test_cmd_eig_lanczos_backend(tmp_path, capsys):
    out = tmp_path / "lz.csv"
    # primal k=3 at levels 20 has 7 081 interior unknowns, above the dense cap
    for form, degree, levels in (("fem2", "2", "4"), ("primal", "3", "20")):
        code = main([
            "eig", "--form", form, "--degree", degree, "--levels", levels,
            "--neigs", "3", "--backend", "lanczos", "--sigma", "1.0",
            "--out", str(out),
        ])
        assert code == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(2.0, abs=1e-3)
        assert capsys.readouterr().err == ""


def test_uncertified_spectrum_warns_on_stderr(tmp_path, capsys, monkeypatch):
    import crisscross.cli as cli

    def doubtful(tmesh, k, n_eigs, backend, *, sigma, seed):
        return Spectrum(eigenvalues=np.array([2.0, 5.0]), zero_count=0,
                        backend="lanczos", converged=False, uncertified=True)

    monkeypatch.setattr(cli, "solve_fem2", doubtful)
    out = tmp_path / "w.csv"
    assert main(["eig", "--levels", "2", "--neigs", "2", "--backend",
                 "lanczos", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    warnings = captured.err.splitlines()
    assert len(warnings) == 1 and warnings[0].startswith("warning:")
    assert "did not converge" in warnings[0] and "uncertified" in warnings[0]
    assert "warning" not in captured.out
    assert len(out.read_text().splitlines()) == 3


def test_short_table_warns_on_stderr(tmp_path, capsys):
    # primal k=1 on one quad has one interior unknown, hence one eigenvalue;
    # the dense table stays short and exits 0, but says so on stderr
    out = tmp_path / "short.csv"
    assert main(["eig", "--levels", "1", "--degree", "1", "--form", "primal",
                 "--neigs", "6", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: primal k=1 on 1 quads: 1 of 6 requested eigenvalues"]
    assert "warning" not in captured.out
    lines = out.read_text().splitlines()
    assert lines[0] == "level,h,index,lambda_h,exact,abs_error,rate"
    assert len(lines) == 2 and lines[1].split(",")[2] == "1"


def test_short_compare_table_warns_on_stderr(tmp_path, capsys):
    # one quad has 11 mixed but 5 primal eigenvalues at k=2: the table keeps
    # the 5 rows both sides have, and stderr names the short side
    out = tmp_path / "short.csv"
    assert main(["compare", "--levels", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: primal k=2 on 1 quads: 5 of 10 requested eigenvalues"]
    assert len(captured.out.splitlines()) == 2 + 5
    assert len(out.read_text().splitlines()) == 1 + 5


def test_cmd_compare_square_modes_converge(tmp_path, capsys):
    # mixed and primal track the same targets; the mode-1 gap is tiny
    config = StudyConfig(domain="square", degree=2, levels=[8], n_eigs=4)
    report, code = cmd_compare(config)
    assert code == 0
    gaps = report.rows[0].errors
    assert gaps[0] < 2e-5
    assert np.all(gaps < 2e-2)
    capsys.readouterr()


def test_solver_failure_exit_code(capsys):
    # degree-3 on the 16x16 grid exceeds the dense cap
    code = main(["eig", "--degree", "3", "--levels", "16", "--neigs", "2"])
    assert code == 3
    assert "shift-invert" in capsys.readouterr().err


def test_fem1_dense_cap_refused_before_the_schur_build(capsys, monkeypatch):
    # 16 quads carry 16 * 23 = 368 pressure unknowns at k=3; fem1 has no
    # shift-invert backend to point to
    def not_built(*args):
        raise AssertionError("Schur complement built past the cap")

    monkeypatch.setattr(eigsolve, "DENSE_CAP", 367)
    monkeypatch.setattr(eigsolve, "_vector_mass_schur", not_built)
    assert main(["eig", "--form", "fem1", "--degree", "3", "--levels", "4"]) == 3
    err = capsys.readouterr().err
    assert err == "solver error: dense solve of size 368 exceeds the cap 367\n"


def test_lapack_failure_exits_as_solver_error(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError; it must not pass for a config error
    import scipy.linalg as sla

    def diverging(*args, **kwargs):
        raise sla.LinAlgError("2 eigenvectors failed to converge")

    monkeypatch.setattr(sla, "eigh_tridiagonal", diverging)
    out = tmp_path / "w.csv"
    assert main(["eig", "--levels", "2", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("solver error:")
    assert not out.exists()


def test_cmd_eig_lshape_third_mode_near_eight(capsys):
    config = StudyConfig(domain="lshape", degree=2, levels=[4], n_eigs=3)
    report, code = cmd_eig(config)
    assert code == 0
    assert abs(report.rows[0].lambdas[2] - 8.0) < 5e-3
    capsys.readouterr()
