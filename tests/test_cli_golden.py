"""Golden stdout digests for the CLI.

Every command below runs in process and its stdout is hashed. The
digests pin the CLI output byte for byte, so a refactor that is meant to
leave the output alone proves it here. A deliberate output change must
update the digest it moves, say so, and bump ``cli.SCHEMA_VERSION``
when it changes a JSON document.

Regenerate a digest with
``PYTHONPATH=src python -m hhlsim.cli ARGS | sha256sum`` from the
directory holding ``matrix.json``, ``exact.json`` and ``vector.json`` as
written below.
"""
import hashlib
import json

import pytest

from hhlsim import cli

# an off-grid 2x2 (eigenvalues 1.5 and 2), so the register readout spreads
MATRIX = [[1.75, 0.25], [0.25, 1.75]]
VECTOR = [0.6, 0.8]
SOLVE = ["solve", "--matrix", "matrix.json", "--vector", "vector.json"]
# eigenvalues 1 and 2 lie on the register grid, so after the uncompute every
# register read is certain and the readout's branches split only at the
# ancilla and the output qubit
EXACT = [[1.5, 0.5], [0.5, 1.5]]

# (argv, sha256 of stdout), recorded at schema version 3: the shot outputs
# moved with the one-draw-per-shot stream, and the other JSON documents
# with their "schema_version" line alone
GRID = {
    "paper": (
        ["paper", "--input", "all"],
        "78a418e31646c97610885df342891b9d1fa4f52f7bb1366b75e24a498900fe2f"),
    "paper-b3-semiclassical": (
        ["paper", "--input", "b3", "--feedforward", "semiclassical"],
        "c8178e8ddf62e1da5d84c66622cab137d914703e3380bc14ead2cfc5846cc89c"),
    "paper-shots": (
        ["paper", "--input", "all", "--shots", "100000", "--seed", "4"],
        "20f9d29573352ca8f84612d9cc373a0388d6e44c8e8714250f4d332e9d1b85e8"),
    "paper-semiclassical-shots": (
        ["paper", "--input", "all", "--feedforward", "semiclassical", "--shots", "100000",
         "--seed", "5"],
        "07013d406fb665c4bb808ca7e5e096b73d15f74830ae23d2c1275cb594234894"),
    "paper-generic-shots-json": (
        ["paper", "--mode", "generic", "--shots", "50000", "--seed", "6"],
        "5bdaf0def713b07358cf4dd4f940084e43e28c0b91bff69ef23eaf9760445f32"),
    "paper-generic-shots-csv": (
        ["paper", "--mode", "generic", "--shots", "50000", "--seed", "6", "--format", "csv"],
        "2ea789c1744a4ed04f8b116de42f0cb18bc8b17690db279d79e0aebd8d3a8496"),
    "noise-sweep-csv": (
        ["noise-sweep"],
        "765a9b72a28f5168295f99a61f3e63eeb1d7818c51dc373d5c876f257562fdb4"),
    "noise-sweep-json": (
        ["noise-sweep", "--format", "json"],
        "4e54a3fe9aa429b0480c73e9985129324cf4011e6bbc7e44f9267ebfd4626821"),
    "noise-sweep-generic-json": (
        ["noise-sweep", "--mode", "generic", "--format", "json"],
        "bbf5df4fb615bc68bd9f75f0b44fdcea3d05a7d1a971d97684ef768b6ff329bf"),
    "selftest": (
        ["selftest"],
        "50ec0e33c4b8d097ad97af8e24d2d138603eb83d9269e49e4227cc0cce75985f"),
    "solve-2": (
        SOLVE + ["--register-bits", "2"],
        "89e21fc922e735836dad959b6d0746b9213c97a64cbb3b57177cc7bc95cdadba"),
    "solve-5-shots": (
        SOLVE + ["--register-bits", "5", "--shots", "100000", "--seed", "3"],
        "2abc5f78dfad1c2cd2bfef2f98b16779e7353def0aeec09d0ae057eeb2aa39de"),
    "solve-8": (
        SOLVE + ["--register-bits", "8"],
        "aaedcd54c85e8980d0f56db3464f4f1eb2ae5f7ea4b2f94366dc4f54c5125d83"),
    "solve-exact-6-shots": (
        ["solve", "--matrix", "exact.json", "--vector", "vector.json", "--register-bits", "6",
         "--shots", "100000", "--seed", "3"],
        "afd7e26c3035615b0e63dedb8cc4f21cc1b3e195c48ccb56f7a4ebe68add1918"),
}


@pytest.mark.parametrize("name", sorted(GRID))
def test_cli_stdout_digest(name, tmp_path, monkeypatch, capsys):
    argv, digest = GRID[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HHL_SIM_SEED", raising=False)
    (tmp_path / "matrix.json").write_text(json.dumps(MATRIX))
    (tmp_path / "exact.json").write_text(json.dumps(EXACT))
    (tmp_path / "vector.json").write_text(json.dumps(VECTOR))
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
