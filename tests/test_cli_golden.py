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
# register read is certain: the sampler's levels that no prefix splits
EXACT = [[1.5, 0.5], [0.5, 1.5]]

# (argv, sha256 of stdout), recorded before the one-walker refactor of circuit
GRID = {
    "paper": (
        ["paper", "--input", "all"],
        "29aa550b11580005006b8c1f5f283875732e51f233153e9b28f138488252d0a9"),
    "paper-b3-semiclassical": (
        ["paper", "--input", "b3", "--feedforward", "semiclassical"],
        "7c67af1a4614b839afa2fff3bf738f5d95ec5d2ea22f08d3934402bbd23665a5"),
    "paper-shots": (
        ["paper", "--input", "all", "--shots", "100000", "--seed", "4"],
        "5b0ce4462221c04aeeaf8c0eb85d5280b8704b3198404b5432dcda9f75bbd056"),
    "paper-semiclassical-shots": (
        ["paper", "--input", "all", "--feedforward", "semiclassical", "--shots", "100000",
         "--seed", "5"],
        "dd772d7260793dc44ed561bf2fe9873018366641ee14b8377c93027ccd87f49f"),
    "paper-generic-shots-json": (
        ["paper", "--mode", "generic", "--shots", "50000", "--seed", "6"],
        "61d67ebd23eb92b0c7ce0278b3076ac83e28eef6bdd2c6ddbeb62569bb703453"),
    "paper-generic-shots-csv": (
        ["paper", "--mode", "generic", "--shots", "50000", "--seed", "6", "--format", "csv"],
        "34d8b24c738331e7793f96f0b4ed9085e3a35b84b0502eff9a6a8f404a988241"),
    "noise-sweep-csv": (
        ["noise-sweep"],
        "765a9b72a28f5168295f99a61f3e63eeb1d7818c51dc373d5c876f257562fdb4"),
    "noise-sweep-json": (
        ["noise-sweep", "--format", "json"],
        "1b9d1d3e088b7c42a117cfb317cb98ccc58ee037a30fb41e5604eb3d26a9d07e"),
    "noise-sweep-generic-json": (
        ["noise-sweep", "--mode", "generic", "--format", "json"],
        "268919c433b34fe8facde41c9be9908d98fcc2c2c0662404493a650a4509c795"),
    "selftest": (
        ["selftest"],
        "50ec0e33c4b8d097ad97af8e24d2d138603eb83d9269e49e4227cc0cce75985f"),
    "solve-2": (
        SOLVE + ["--register-bits", "2"],
        "ca726d9c5685873d30dbaf95347bc8d30b54f1cd3c62468a518faeb156cafa60"),
    "solve-5-shots": (
        SOLVE + ["--register-bits", "5", "--shots", "100000", "--seed", "3"],
        "bf9de469ef78b1e90ed014f728a23d33877e3c1247245b1e86ec64fee53f982d"),
    "solve-8": (
        SOLVE + ["--register-bits", "8"],
        "2c0ccc71647f6536d43a6eaee7e6a3fc59a80ac718dafbe658c0e3fa75651b41"),
    # recorded before the sampler stopped stepping shots through unsplit levels
    "solve-exact-6-shots": (
        ["solve", "--matrix", "exact.json", "--vector", "vector.json", "--register-bits", "6",
         "--shots", "100000", "--seed", "3"],
        "a8b6d64a1fccb295ca89e71f0dc79ab9dcd241c6935347a60c992623346a4bdd"),
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
