import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhlsim import circuit as cq
from hhlsim import cli, hhl

A_REF = [[1.5, 0.5], [0.5, 1.5]]


def write_problem(tmp_path, matrix=A_REF, vector=(1.0, 0.0)):
    mfile = tmp_path / "matrix.json"
    vfile = tmp_path / "vector.json"
    mfile.write_text(json.dumps(matrix))
    vfile.write_text(json.dumps(list(vector)))
    return str(mfile), str(vfile)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reference(tmp_path, capsys):
    m, v = write_problem(tmp_path)
    code, out, err = run_cli(capsys, [
        "solve", "--matrix", m, "--vector", v, "--c-const", "1.0",
    ])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == "3"
    assert doc["command"] == "solve"
    assert doc["config"]["register_bits"] == 2
    res = doc["result"]
    assert res["fidelity"] >= 1 - 1e-9
    assert np.isclose(res["success_probability"], 0.625, atol=1e-9)
    assert res["register_reset_ok"] is True
    x = np.array([complex(re, im) for re, im in res["x"]])
    want = np.array([3.0, -1.0]) / math.sqrt(10)
    assert abs(np.vdot(want, x)) ** 2 >= 1 - 1e-9


def test_solve_default_c_adapts(tmp_path, capsys):
    s = 1 / math.sqrt(2)
    m, v = write_problem(tmp_path, vector=(s, s))
    code, out, _ = run_cli(capsys, ["solve", "--matrix", m, "--vector", v])
    assert code == 0
    doc = json.loads(out)
    assert np.isclose(doc["result"]["success_probability"], 1.0, atol=1e-9)
    assert doc["config"]["c_const"] is None


def test_solve_with_shots(tmp_path, capsys):
    m, v = write_problem(tmp_path)
    code, out, _ = run_cli(capsys, [
        "solve", "--matrix", m, "--vector", v, "--shots", "2000", "--seed", "4",
    ])
    assert code == 0
    est = json.loads(out)["result"]["shot_estimates"]
    assert est["shots"] == 2000
    for key, want in (("z", 0.8), ("x", -0.6), ("y", 0.0)):
        block = est[key]
        assert abs(block["value"] - want) <= 4 * block["stderr"] + 1e-9
        assert 0 < block["accepted"] <= 2000


def test_solve_shots_rejects_a_wide_system_before_solving(tmp_path, capsys, monkeypatch):
    def solve(problem):
        raise AssertionError("the system was solved before its shots were refused")

    monkeypatch.setattr(cli, "run_hhl", solve)
    m, v = write_problem(tmp_path, matrix=np.diag([1.0, 2.0, 3.0, 4.0]).tolist(), vector=(1.0, 0.0, 0.0, 0.0))
    argv = ["solve", "--matrix", m, "--vector", v, "--register-bits", "10", "--shots", "100"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: shot estimation reads a single output qubit\n"
    # a malformed file still reports its own error
    Path(m).write_text("[[1, 0], [0]]")
    code, _, err = run_cli(capsys, argv)
    assert code == 2 and "differ in length" in err


def _command_counts(monkeypatch, capsys, argv) -> dict[str, int]:
    """``validate`` calls and gates run by ``circuit.run`` during one in-process command."""
    counts = {"validate": 0, "gates": 0}
    validate, run = hhl.validate, cq.run

    def counted_validate(p):
        counts["validate"] += 1
        return validate(p)

    def counted_run(c, *args, **kwargs):
        counts["gates"] += sum(1 for op in c.ops if not isinstance(op, cq.Measure))
        return run(c, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(hhl, "validate", counted_validate)
        patch.setattr(cq, "run", counted_run)
        code, _, err = run_cli(capsys, argv)
    assert code == 0, err
    return counts


def test_each_command_runs_a_pipeline_once_per_problem(tmp_path, capsys, monkeypatch):
    # the shot readout samples the state the solve already holds, so shots
    # add no validation and no gate run to the exact solve; the reciprocal
    # rotation counts as one op, its multiplexor
    m, v = write_problem(tmp_path)
    solve = ["solve", "--matrix", m, "--vector", v, "--register-bits", "4"]
    assert _command_counts(monkeypatch, capsys, solve) == {"validate": 1, "gates": 41}
    assert _command_counts(monkeypatch, capsys, [*solve, "--shots", "1000"]) == {"validate": 1, "gates": 41}
    # three inputs, each a 2-bit solve of 17 ops
    paper = ["paper", "--mode", "generic", "--shots", "1000"]
    assert _command_counts(monkeypatch, capsys, paper) == {"validate": 3, "gates": 51}
    # one layout per input, run under each of the 11 default noise levels
    sweep = _command_counts(monkeypatch, capsys, ["noise-sweep", "--mode", "generic"])
    assert sweep == {"validate": 3, "gates": 3 * 11 * 17}


def test_solve_out_file(tmp_path, capsys):
    m, v = write_problem(tmp_path)
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, [
        "solve", "--matrix", m, "--vector", v, "--out", str(target),
    ])
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["fidelity"] >= 1 - 1e-9


def test_solve_singular_matrix(tmp_path, capsys):
    m, v = write_problem(tmp_path, matrix=[[1.0, 1.0], [1.0, 1.0]])
    code, _, err = run_cli(capsys, ["solve", "--matrix", m, "--vector", v])
    assert code == 2
    assert err.startswith("error:")
    assert "singular" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix, kappa", [
    ([[1.0, 0.0], [0.0, 1e200]], "1e+200"),
    ([[1e-9, 0.0], [0.0, 1e300]], "inf"),
    ([[1.0, 0.0], [0.0, 1e11]], "1e+11"),
])
def test_solve_rejects_ill_conditioned_matrix(tmp_path, capsys, matrix, kappa):
    m, v = write_problem(tmp_path, matrix=matrix, vector=(0.6, 0.8))
    code, out, err = run_cli(capsys, ["solve", "--matrix", m, "--vector", v])
    assert code == 2 and out == ""
    assert "singular" in err and f"condition number {kappa}" in err


def test_solve_validation_failures(tmp_path, capsys):
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    _, vfile = write_problem(tmp_path)
    assert run_cli(capsys, ["solve", "--matrix", str(bad), "--vector", vfile])[0] == 2
    # missing file
    assert run_cli(capsys, [
        "solve", "--matrix", str(tmp_path / "nope.json"), "--vector", vfile,
    ])[0] == 2
    # non-Hermitian matrix
    m, v = write_problem(tmp_path, matrix=[[1.0, 1.0], [0.0, 1.0]])
    assert run_cli(capsys, ["solve", "--matrix", m, "--vector", v])[0] == 2
    # unnormalized vector
    m, v = write_problem(tmp_path, vector=(1.0, 1.0))
    assert run_cli(capsys, ["solve", "--matrix", m, "--vector", v])[0] == 2
    # C too large for a populated eigenvalue
    m, v = write_problem(tmp_path)
    code, _, err = run_cli(capsys, [
        "solve", "--matrix", m, "--vector", v, "--c-const", "5.0",
    ])
    assert code == 2 and "error:" in err
    # indefinite matrix: a negative eigenvalue would wrap around the register
    m, v = write_problem(tmp_path, matrix=[[1.0, 0.0], [0.0, -1.0]], vector=(0.6, 0.8))
    code, _, err = run_cli(capsys, ["solve", "--matrix", m, "--vector", v])
    assert code == 2 and "negative eigenvalue -1.0" in err
    # register too wide to allocate
    m, v = write_problem(tmp_path)
    code, _, err = run_cli(capsys, ["solve", "--matrix", m, "--vector", v, "--register-bits", "30"])
    assert code == 2 and "register qubits" in err
    # eigenvalues whose register image overflows to infinity
    m, v = write_problem(tmp_path, matrix=[[1e308, 0.0], [0.0, 1e308]])
    code, _, err = run_cli(capsys, ["solve", "--matrix", m, "--vector", v])
    assert code == 2 and "overflows the register" in err
    # a negative C in exponent form or spelled as an infinity or nan, given
    # as two tokens, reaches InvalidC
    m, v = write_problem(tmp_path)
    for c_const in ("-2.5e-209", "-1e3", "-inf", "-nan", "-Infinity"):
        code, _, err = run_cli(capsys, ["solve", "--matrix", m, "--vector", v, "--c-const", c_const])
        assert code == 2 and f"C must be positive and finite, got {float(c_const)}" in err
    # a classical solution whose squared norm underflows is still normalized:
    # b is an eigenvector, so the solution is b itself
    m, v = write_problem(tmp_path, matrix=[[1e200, 0.0], [0.0, 3e200]])
    code, out, err = run_cli(capsys, ["solve", "--matrix", m, "--vector", v])
    assert code == 0, err
    assert abs(json.loads(out)["result"]["fidelity"] - 1.0) < 1e-9


@pytest.mark.parametrize("which, text, message", [
    ("matrix", "5", "array of rows"),
    ("matrix", "null", "array of rows"),
    ("matrix", "[[1, 0], [0]]", "differ in length"),
    ("matrix", "[[1, 0], [0, null]]", "not a number"),
    ("matrix", "[[true, 0], [0, 1]]", "not a number"),
    ("matrix", "[[NaN, 0.5], [0.5, 1.5]]", "non-finite"),
    ("matrix", "[[Infinity, 0.5], [0.5, 1.5]]", "non-finite"),
    ("matrix", "[[1.5, [0.5, NaN]], [0.5, 1.5]]", "non-finite"),
    ("vector", "5", "must be a JSON array"),
    ("vector", "null", "must be a JSON array"),
    ("vector", "[NaN, 0]", "non-finite"),
    ("vector", "[1, -Infinity]", "non-finite"),
])
def test_solve_rejects_malformed_json(tmp_path, capsys, which, text, message):
    m, v = write_problem(tmp_path)
    (tmp_path / f"{which}.json").write_text(text)
    code, out, err = run_cli(capsys, ["solve", "--matrix", m, "--vector", v])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


# finite reals from 1e-300 to 1e300 in magnitude, and small ones near the spectrum scale
REALS = st.one_of(
    st.floats(-8.0, 8.0),
    st.builds(lambda sign, mant, exp: sign * mant * 10.0**exp,
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.9), st.integers(-300, 299)),
)
ENTRIES = st.one_of(REALS, st.lists(REALS, min_size=2, max_size=2))


def _conj(entry):
    return [entry[0], -entry[1]] if isinstance(entry, list) else entry


@st.composite
def solve_inputs(draw):
    """(matrix, vector, register bits, C or None) as the solve command reads them."""
    dim = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["diagonal", "hermitian", "any", "ragged"]))
    if shape == "ragged":
        matrix = [draw(st.lists(ENTRIES, min_size=1, max_size=4)) for _ in range(dim)]
    elif shape == "any":
        matrix = [[draw(ENTRIES) for _ in range(dim)] for _ in range(dim)]
    else:
        matrix = [[0.0] * dim for _ in range(dim)]
        for i in range(dim):
            matrix[i][i] = abs(draw(REALS)) if shape == "diagonal" else draw(REALS)
            for j in range(i + 1, dim):
                if shape == "hermitian":
                    matrix[i][j] = draw(ENTRIES)
                    matrix[j][i] = _conj(matrix[i][j])
    size = draw(st.sampled_from([dim, dim, dim, dim + 1]))
    vector = [draw(ENTRIES) for _ in range(size)]
    b = np.array([complex(*v) if isinstance(v, list) else v for v in vector])
    with np.errstate(over="ignore"):
        # an overflowing norm reads inf, and such a vector is left as drawn
        norm = np.linalg.norm(b)
    if draw(st.booleans()) and 0 < norm < math.inf:
        vector = [[v.real, v.imag] for v in b / norm]
    c_const = draw(st.one_of(st.none(), REALS))
    return matrix, vector, draw(st.integers(1, 3)), c_const


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@example(([[1e308, 0.0], [0.0, 1e308]], [1.0, 0.0], 2, None))
@example(([[1e200, 0.0], [0.0, 3e200]], [1.0, 0.0], 2, None))
@example(([[1e-9, 0.0], [0.0, 1e300]], [1.0, 0.0], 2, None))
@given(solve_inputs())
def test_solve_fuzz_keeps_exit_contract(case):
    matrix, vector, bits, c_const = case
    with tempfile.TemporaryDirectory() as tmp:
        m, v = Path(tmp) / "matrix.json", Path(tmp) / "vector.json"
        m.write_text(json.dumps(matrix))
        v.write_text(json.dumps(vector))
        argv = ["solve", "--matrix", str(m), "--vector", str(v), "--register-bits", str(bits)]
        if c_const is not None:
            # two tokens: a negative value, exponent form included, is still read as a value
            argv += ["--c-const", repr(c_const)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        _strict_json(out.getvalue())


@pytest.mark.parametrize("c_const", ["nan", "inf"])
def test_solve_rejects_non_finite_c(tmp_path, capsys, c_const):
    m, v = write_problem(tmp_path)
    code, out, err = run_cli(capsys, ["solve", "--matrix", m, "--vector", v, "--c-const", c_const])
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_solve_vanishing_heralding(tmp_path, capsys):
    # a tiny C drives the heralding weight below the projection floor
    m, v = write_problem(tmp_path)
    code, _, err = run_cli(capsys, [
        "solve", "--matrix", m, "--vector", v, "--c-const", "1e-20",
    ])
    assert code == 3
    assert err.startswith("error:")


def test_paper_json(capsys):
    code, out, _ = run_cli(capsys, ["paper"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "paper"
    assert doc["config"]["mode"] == "compiled"
    entries = doc["report"]["entries"]
    assert [e["input"] for e in entries] == ["b1", "b2", "b3"]
    assert np.isclose(entries[2]["fidelity"], 0.998949878525, atol=1e-9)
    assert np.isclose(entries[0]["success_probability"], 0.146446609407, atol=1e-9)
    assert np.isclose(entries[1]["success_probability"], 0.5, atol=1e-9)
    assert np.isclose(entries[2]["ideal"]["z"], 0.8, atol=1e-9)


def test_paper_generic_json(capsys):
    code, out, _ = run_cli(capsys, ["paper", "--mode", "generic"])
    assert code == 0
    entries = json.loads(out)["report"]["entries"]
    for e, p in zip(entries, (0.25, 1.0, 0.625)):
        assert np.isclose(e["success_probability"], p, atol=1e-9)
        assert e["fidelity"] >= 1 - 1e-9


def test_paper_csv(capsys):
    code, out, _ = run_cli(capsys, ["paper", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "input,observable,ideal,simulated,stderr"
    assert len(lines) == 10
    assert all(line.endswith(",") for line in lines[1:])  # exact run: no stderr


def test_paper_csv_single_input_with_shots(capsys):
    code, out, _ = run_cli(capsys, [
        "paper", "--input", "b3", "--format", "csv", "--shots", "1000", "--seed", "2",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    for line in lines[1:]:
        name, obs, ideal, sim, err = line.split(",")
        assert name == "b3" and obs in ("z", "x", "y")
        assert abs(float(sim) - float(ideal)) <= 4 * float(err) + 1e-9


def test_paper_flag_rejection(capsys):
    code, _, err = run_cli(capsys, [
        "paper", "--mode", "generic", "--feedforward", "semiclassical",
    ])
    assert code == 2 and "error:" in err
    # a shot count whose uniform draw would not fit in memory
    code, _, err = run_cli(capsys, ["paper", "--input", "b3", "--shots", "1000000000000000"])
    assert code == 2 and "shots must be at most" in err


def test_paper_deterministic_output(capsys):
    argv = ["paper", "--shots", "800", "--seed", "11"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    _, other, _ = run_cli(capsys, ["paper", "--shots", "800", "--seed", "12"])
    assert other != first


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("HHL_SIM_SEED", "11")
    _, via_env, _ = run_cli(capsys, ["paper", "--shots", "800"])
    assert json.loads(via_env)["config"]["seed"] == 11
    monkeypatch.delenv("HHL_SIM_SEED")
    _, via_flag, _ = run_cli(capsys, ["paper", "--shots", "800", "--seed", "11"])
    assert via_env == via_flag
    monkeypatch.setenv("HHL_SIM_SEED", "lots")
    code, _, err = run_cli(capsys, ["paper", "--shots", "800"])
    assert code == 2 and "HHL_SIM_SEED" in err


def test_noise_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, ["noise-sweep"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,input,fidelity"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 33
    fid = {}
    for p, name, f in rows:
        fid.setdefault(name, []).append(float(f))
    assert np.isclose(fid["b1"][0], 1.0, atol=1e-9)
    assert np.isclose(fid["b3"][0], 0.998949878525, atol=1e-9)
    for series in fid.values():
        assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))


def test_noise_sweep_full_depolarizing(capsys):
    code, out, _ = run_cli(capsys, ["noise-sweep", "--p-list", "1.0", "--mode", "generic"])
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert line.endswith(",0.5")


def test_noise_sweep_json(capsys):
    code, out, _ = run_cli(capsys, [
        "noise-sweep", "--p-list", "0,0.2", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["p_list"] == [0.0, 0.2]
    assert len(doc["rows"]) == 6
    assert {"p", "input", "fidelity"} <= set(doc["rows"][0])


def test_noise_sweep_bad_p_list(capsys):
    assert run_cli(capsys, ["noise-sweep", "--p-list", "a,b"])[0] == 2
    assert run_cli(capsys, ["noise-sweep", "--p-list", "1.5"])[0] == 2
    assert run_cli(capsys, ["noise-sweep", "--p-list", ","])[0] == 2


def test_selftest_clean(capsys):
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 0
    lines = out.strip().split("\n")
    assert sum(1 for line in lines if line.startswith("pass")) >= 10
    assert lines[-1].endswith("checks passed")


def test_selftest_corrupted_angle_fails(capsys):
    code, out, _ = run_cli(capsys, ["selftest", "--corrupt-angle", "0.6"])
    assert code == 1
    assert any(line.startswith("FAIL") for line in out.strip().split("\n"))


def test_usage_errors_exit_2(capsys):
    for argv in ([], ["paper", "--mode", "nope"], ["--bogus"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def child_env() -> dict:
    """Environment in which a child imports the package under test, however this process found it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_roundtrip(tmp_path):
    env = child_env()
    argv = [sys.executable, "-m", "hhlsim.cli", "paper", "--input", "b3", "--shots", "500"]
    first = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert first.returncode == 0
    second = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert first.stdout == second.stdout


def test_solve_never_imports_numpy_random(tmp_path):
    # the measurement generator is built at the first draw, and solve draws none
    m, v = write_problem(tmp_path)
    code = ("import contextlib, io, sys\nfrom hhlsim import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main(['solve', '--matrix', {m!r}, '--vector', {v!r}]) == 0\n"
            "print('numpy.random' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"


def test_selftest_never_imports_numpy_ma():
    # selftest samples shots, and the sampler's sort-and-count path needs no numpy.ma
    code = ("import contextlib, io, sys\nfrom hhlsim import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main(['selftest']) == 0\n"
            "print('numpy.ma' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"
