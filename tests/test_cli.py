"""Command-line front end: outputs, exit codes, determinism."""

import json
import random

import pytest

from moduli_sys.cli import main
from moduli_sys.linalg import Field
from moduli_sys.realization import MarkovSequence
from moduli_sys.system import random_system, system_from_json, system_to_json


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def simple_system_file(tmp_path):
    payload = {
        "field": "Q", "m": 1, "n": 1, "p": 1,
        "A": ["2"], "B": ["1"], "C": ["3"],
    }
    return write_json(tmp_path / "sys.json", payload)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_simple(simple_system_file, capsys):
    code, out, err = run(capsys, ["analyze", "--system", simple_system_file])
    assert code == 0 and err == ""
    assert "cc=true co=true canonical=true" in out
    assert "schubert cell I = {1}" in out
    assert "#" in out  # the kalman code art


def test_analyze_json(simple_system_file, capsys):
    code, out, _ = run(capsys, ["analyze", "--system", simple_system_file, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["canonical"] is True
    assert doc["schubert_cell"] == [1]
    assert doc["kalman_code"]["column_heights"] == [1]


def test_analyze_non_cc(tmp_path, capsys):
    payload = {
        "field": "Q", "m": 1, "n": 1, "p": 1,
        "A": ["2"], "B": ["0"], "C": ["3"],
    }
    path = write_json(tmp_path / "bad.json", payload)
    code, out, _ = run(capsys, ["analyze", "--system", path])
    assert code == 0
    assert "cc=false co=true canonical=false" in out
    assert "undefined" in out


def test_canon_and_exit_codes(simple_system_file, tmp_path, capsys):
    code, out, _ = run(capsys, ["canon", "--system", simple_system_file])
    assert code == 0 and "g =" in out

    payload = {
        "field": "Q", "m": 1, "n": 1, "p": 1,
        "A": ["2"], "B": ["0"], "C": ["3"],
    }
    bad = write_json(tmp_path / "bad.json", payload)
    code, out, err = run(capsys, ["canon", "--system", bad])
    assert code == 2
    assert "NotControllable" in err

    code, _, err = run(capsys, ["canon", "--system", str(tmp_path / "missing.json")])
    assert code == 1
    assert "INVALID_INPUT" in err

    code, _, err = run(capsys, ["canon", "--no-such-flag"])
    assert code == 1
    assert "USAGE" in err


def test_embed(simple_system_file, capsys):
    code, out, _ = run(capsys, ["embed", "--system", simple_system_file])
    assert code == 0
    assert "moduli point in Gras_1(1)" in out
    assert "relation plane in Gras_2(3), stratum n = 1" in out
    assert "locus membership: cc=true co=true canonical=true" in out


def test_embed_json(simple_system_file, capsys):
    code, out, _ = run(capsys, ["embed", "--system", simple_system_file, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["stratum"] == 1
    assert doc["in_canonical"] is True
    assert doc["relation_plane"]["k"] == 2


def test_census_cli(capsys):
    code, out, _ = run(capsys, ["census", "--m", "1", "--p", "1", "--n-max", "2", "--q", "2,3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,p,q,raw,gl_order,orbits,formula,match"
    assert len(lines) == 1 + 2 * 3
    assert all(line.endswith(",true") for line in lines[1:])


def test_realize_cli(tmp_path, capsys):
    seq = MarkovSequence.from_scalars(Field.rationals(), [1, 1, 2, 3, 5, 8])
    path = write_json(tmp_path / "fib.json", seq.to_json())
    code, out, _ = run(capsys, ["realize", "--markov", path])
    assert code == 0
    assert "realized order n = 2" in out
    assert "verify=true" in out

    short = write_json(tmp_path / "short.json",
                       MarkovSequence.from_scalars(Field.rationals(), [1, 2]).to_json())
    code, _, err = run(capsys, ["realize", "--markov", short])
    assert code == 2
    assert "NotStabilized" in err


def test_random_cli_reproducible(capsys):
    argv = ["random", "--field", "5", "--m", "2", "--n", "2", "--p", "1", "--seed", "9", "--cc"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    system = system_from_json(json.loads(out1))
    assert system.shape() == (2, 2, 1)

    code3, out3, _ = run(capsys, ["random", "--field", "5", "--m", "2", "--n", "2",
                                  "--p", "1", "--seed", "10", "--cc"])
    assert out3 != out1


def test_outputs_deterministic_across_runs(tmp_path, capsys):
    rng = random.Random(123)
    paths = []
    for i, field in enumerate((Field.rationals(), Field.prime(3))):
        s = random_system(field, 2, 2, 1, rng, require="cc")
        paths.append(write_json(tmp_path / f"sys{i}.json", system_to_json(s)))
    for path in paths:
        for command in ("analyze", "canon", "embed"):
            _, out1, _ = run(capsys, [command, "--system", path])
            _, out2, _ = run(capsys, [command, "--system", path])
            assert out1 == out2


def test_huge_modulus_fails_fast(tmp_path, capsys):
    import subprocess
    import sys

    def system_file(name, q):
        payload = {
            "field": {"Fp": q}, "m": 1, "n": 1, "p": 1,
            "A": ["2"], "B": ["1"], "C": ["3"],
        }
        return write_json(tmp_path / name, payload)

    # a 25-digit prime: a fresh process answers well inside the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "moduli_sys", "analyze", "--system", system_file("p.json", 10 ** 24 + 7)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "field: F1000000000000000000000007" in proc.stdout

    code, _, err = run(capsys, ["analyze", "--system", system_file("big.json", 2 ** 89 - 1)])
    assert code == 1
    assert "INVALID_INPUT" in err and "too large" in err
    code, _, err = run(capsys, ["analyze", "--system", system_file("comp.json", (10 ** 12 + 39) * (10 ** 12 + 61))])
    assert code == 1
    assert "must be prime" in err
