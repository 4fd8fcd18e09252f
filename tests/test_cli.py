"""Command-line front end: outputs, exit codes, determinism."""

import json
import random

import pytest

import moduli_sys.realization as realization
from moduli_sys.cli import main
from moduli_sys.kalman import canonical_form
from moduli_sys.linalg import Field
from moduli_sys.realization import MarkovSequence
from moduli_sys.system import MAX_DIM, markov_parameters, random_system, system_from_json, system_to_json


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
    code, out, err = run(capsys, ["embed", "--system", bad])
    assert (code, out) == (2, "")
    assert "NotControllable: embeddings need a cc system (rank c = 0 < 1)" in err

    code, _, err = run(capsys, ["canon", "--system", str(tmp_path / "missing.json")])
    assert code == 1
    assert "INVALID_INPUT" in err

    code, _, err = run(capsys, ["canon", "--no-such-flag"])
    assert code == 1
    assert "USAGE" in err


@pytest.mark.parametrize("field", [Field.rationals(), Field.prime(5)], ids=str)
def test_canon_json(field, tmp_path, capsys):
    system = random_system(field, 2, 3, 1, random.Random(4), require="cc")
    g, canon = canonical_form(system)
    path = write_json(tmp_path / "sys.json", system_to_json(system))
    code, out, err = run(capsys, ["canon", "--system", path, "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"g": [field.scalar_to_json(x) for x in g.entries], "system": system_to_json(canon)}


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


def test_embed_reports_classification_next_to_the_locus_tests(tmp_path, capsys):
    # the smallest criterion-6 counterexample of notes/decisions.md: co, yet outside the co locus
    path = write_json(tmp_path / "ce.json", {
        "field": {"Fp": 2}, "m": 1, "n": 2, "p": 1,
        "A": [0, 0, 0, 1], "B": [1, 1], "C": [1, 1],
    })
    code, out, _ = run(capsys, ["embed", "--system", path, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["co"] is True and doc["canonical"] is True
    assert doc["in_co"] is False and doc["in_canonical"] is False and doc["in_cc"] is True
    code, out, _ = run(capsys, ["embed", "--system", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[-2:] == [
        "classify: co=true canonical=true",
        "locus membership: cc=true co=false canonical=false",
    ]


def test_census_cli(capsys):
    code, out, _ = run(capsys, ["census", "--m", "1", "--p", "1", "--n-max", "2", "--q", "2,3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,p,q,raw,gl_order,orbits,formula,match"
    assert len(lines) == 1 + 2 * 3
    assert all(line.endswith(",true") for line in lines[1:])


def test_census_cli_rejects_huge_modulus(capsys):
    # the state bound lets this cell through; the int64 kernel cannot take the modulus
    code, out, err = run(capsys, ["census", "--m", "1", "--p", "0", "--n-max", "1", "--q", "4294967311",
                                  "--bound", str(10 ** 20)])
    assert code == 1
    assert out == ""
    assert "INVALID_INPUT" in err and "1048576" in err


@pytest.mark.parametrize("argv, name", [
    (["--m", "1", "--p", "-1", "--n-max", "2", "--q", "2"], "p"),
    (["--m", "1", "--p", "1", "--n-min", "-2", "--n-max", "2", "--q", "2"], "n"),
    (["--m", "-1", "--p", "1", "--n-max", "2", "--q", "2"], "m"),
])
def test_census_cli_rejects_negative_dimensions(argv, name, capsys):
    code, out, err = run(capsys, ["census"] + argv)
    assert code == 1
    assert out == ""
    assert f"INVALID_INPUT: census dimension {name} must be non-negative" in err


def test_census_cli_rejects_empty_n_range(capsys):
    code, out, err = run(capsys, ["census", "--m", "1", "--p", "1", "--n-min", "3", "--n-max", "1", "--q", "2"])
    assert code == 1
    assert out == ""
    assert "USAGE: empty n range" in err


def test_census_cli_bound_counts_enumerated_states(capsys):
    # (1,2,0,2) enumerates 2^2 matrices B and 1 * 2^4 matrices A: 20 states, not the 2^6 pairs
    argv = ["census", "--m", "1", "--p", "0", "--n-min", "2", "--n-max", "2", "--q", "2", "--bound"]
    code, out, _ = run(capsys, argv + ["20"])
    assert code == 0
    assert out.splitlines()[1:] == ["1,2,0,2,24,6,4,4,true"]
    code, out, err = run(capsys, argv + ["19"])
    assert code == 2
    assert out == ""
    assert "CensusTooLarge: 20 states exceed the bound 19" in err


@pytest.mark.parametrize("extra, code, message", [
    # a non-prime modulus is refused before the bound
    (["--q", "4", "--bound", "0"], 1, "INVALID_INPUT: field modulus must be prime"),
    (["--q", ","], 1, "USAGE: --q needs at least one prime"),
    # the modulus cap comes before the bound, at n = 1
    (["--q", "4294967311", "--bound", "0"], 1, "INVALID_INPUT: census modulus 4294967311 is too large"),
    # the default bound, 2^24
    (["--m", "2", "--n-min", "4", "--n-max", "4", "--q", "3"], 2,
     "CensusTooLarge: 86100003 states exceed the bound 16777216"),
    # 2^120 + 2^14400 states, past the bound too, but the unprintable report is refused first
    (["--n-min", "120", "--n-max", "120", "--q", "2"], 2,
     "CensusTooLarge: 2^(120*121) = q^(n(n+m+p)) has more than 4300 digits, too many to print the report of n = 120"),
    # few states, but q^(n(n+m+p)), which bounds every report number, has more than 4300 digits
    (["--m", "0", "--n-min", "120", "--n-max", "120", "--q", "2"], 2,
     "CensusTooLarge: 2^(120*120) = q^(n(n+m+p)) has more than 4300 digits, too many to print the report of n = 120"),
    (["--m", "0", "--n-min", "119", "--n-max", "119", "--q", "3"], 2,
     "CensusTooLarge: 3^(119*119) = q^(n(n+m+p)) has more than 4300 digits"),
    (["--p", "100000", "--q", "2"], 2, "CensusTooLarge: 2^(1*100002) = q^(n(n+m+p)) has more than 4300 digits"),
    (["--m", "0", "--n-min", "20000", "--n-max", "20000", "--q", "2"], 2,
     "CensusTooLarge: 2^(20000*20000) = q^(n(n+m+p)) has more than 4300 digits"),
    # an n past 256 bits is named by its bit length, so no int past 4300 digits is formatted
    (["--n-min", str(10 ** 2200), "--n-max", str(10 ** 2200), "--q", "2"], 2,
     "CensusTooLarge: 2^(more than 2^7308*more than 2^7308) = q^(n(n+m+p)) has more than 4300 digits, "
     "too many to print the report of n = more than 2^7308"),
    # a raised bound admits (3,7,0,2), but its Krylov tails at r = 3 have 2^72 codes, past int64
    (["--m", "3", "--n-min", "7", "--n-max", "7", "--q", "2", "--bound", str(1 << 60)], 2,
     "CensusTooLarge: 2^(4*18) = q^((n-r)(n-1)r) is at least 2^63, too many Krylov tail codes for int64 at r = 3"),
], ids=["non-prime", "no-prime", "modulus-before-bound", "default-bound", "huge-cell",
        "m0-n120", "m0-q3", "large-p", "m0-n20000", "n-1e2200", "int64-tail-codes"])
def test_census_cli_refusals(extra, code, message, capsys):
    import time

    argv = ["census", "--m", "1", "--p", "0", "--n-max", "1"]
    start = time.monotonic()
    got, out, err = run(capsys, argv + extra)
    assert time.monotonic() - start < 5
    assert (got, out) == (code, "")
    assert message in err


def test_census_cli_refuses_a_huge_cell_at_once():
    # about 2^(1.8 10^8) states: the report would not print, so the count is never computed
    import subprocess
    import sys
    import time

    argv = [sys.executable, "-m", "moduli_sys", "census", "--m", "1", "--p", "0",
            "--n-min", "3000", "--n-max", "3000", "--q", "1048573"]
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert time.monotonic() - start < 5
    assert (done.returncode, done.stdout) == (2, "")
    assert "CensusTooLarge: 1048573^(3000*3001) = q^(n(n+m+p)) has more than 4300 digits" in done.stderr


def test_census_cli_prints_a_report_at_the_digit_limit(capsys):
    # 2^(119*119) has 4263 digits: the last n at which an m = p = 0 cell over F_2 prints
    code, out, err = run(capsys, ["census", "--m", "0", "--p", "0", "--n-min", "119", "--n-max", "119", "--q", "2"])
    assert (code, err) == (0, "")  # no cc orbit at m = 0, and the formula says 0
    header, row = out.splitlines()
    assert row.startswith("0,119,0,2,0,") and row.endswith(",0,0,true")


@pytest.mark.parametrize("value", ["abc", "3"])
def test_census_cli_ignores_the_environment(value):
    # the bound is --bound or its default; no environment variable sets it
    import os
    import subprocess
    import sys

    argv = [sys.executable, "-m", "moduli_sys", "census", "--m", "1", "--p", "1", "--n-max", "2", "--q", "2,3"]
    env = {k: v for k, v in os.environ.items() if k != "MODULI_SYS_CENSUS_BOUND"}
    unset = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert unset.returncode == 0, unset.stderr
    env["MODULI_SYS_CENSUS_BOUND"] = value
    got = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert (got.returncode, got.stdout, got.stderr) == (0, unset.stdout, "")


def test_text_output_of_empty_matrices(tmp_path, capsys):
    n0 = write_json(tmp_path / "n0.json", {"field": "Q", "m": 2, "n": 0, "p": 1, "A": [], "B": [], "C": []})
    empty = write_json(tmp_path / "empty.json", {"field": "Q", "m": 0, "n": 0, "p": 0, "A": [], "B": [], "C": []})
    m0 = write_json(tmp_path / "m0.json",
                    {"field": {"Fp": 3}, "m": 0, "n": 2, "p": 1, "A": [1, 2, 0, 1], "B": [], "C": [1, 0]})
    expected = {
        ("canon", n0): (
            "g =\n  <empty 0x0>\n"
            "A' =\n  <empty 0x0>\n"
            "B' =\n  <empty 0x2>\n"
            "C' =\n  <empty 1x0>\n"
        ),
        ("embed", n0): (
            "moduli point: undefined for n = 0\n"
            "relation plane in Gras_3(3), stratum n = 0\n"
            "representative =\n  [1 0 0]\n  [0 1 0]\n  [0 0 1]\n"
            "pivots J = {1, 2, 3}\n"
            "classify: co=true canonical=true\n"
            "locus membership: cc=true co=true canonical=true\n"
        ),
        # m = p = n = 0: a 0-plane in 0-space, inside every locus
        ("embed", empty): (
            "moduli point: undefined for n = 0\n"
            "relation plane in Gras_0(0), stratum n = 0\n"
            "representative =\n  <empty 0x0>\n"
            "pivots J = {}\n"
            "classify: co=true canonical=true\n"
            "locus membership: cc=true co=true canonical=true\n"
        ),
        ("analyze", n0): (
            "field: Q\n"
            "type (m,n,p): (2, 0, 1)\n"
            "rank c = 0 of 0\n"
            "rank o = 0 of 0\n"
            "cc=true co=true canonical=true\n"
            "simple as quiver representation: true\n"
            "kalman code (rows = powers 0..n-1, columns = inputs 1..m):\n"
            "  (empty)\n"
            "schubert cell I = {}\n"
        ),
        ("analyze", m0): (
            "field: F3\n"
            "type (m,n,p): (0, 2, 1)\n"
            "rank c = 0 of 2\n"
            "rank o = 2 of 2\n"
            "cc=false co=true canonical=false\n"
            "simple as quiver representation: false\n"
            "kalman code: undefined (system is not completely controllable)\n"
        ),
    }
    for (command, path), text in expected.items():
        assert run(capsys, [command, "--system", path]) == (0, text, ""), command


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


def test_realize_cli_checks_the_window_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(system, count):
        calls.append(count)
        return markov_parameters(system, count)

    monkeypatch.setattr(realization, "markov_parameters", counted)
    seq = MarkovSequence.from_scalars(Field.rationals(), [1, 1, 2, 3, 5, 8])
    path = write_json(tmp_path / "fib.json", seq.to_json())
    for argv in (["realize", "--markov", path], ["realize", "--markov", path, "--json"]):
        calls.clear()
        code, out, _ = run(capsys, argv)
        assert code == 0 and ("verify=true" in out or '"verify": true' in out)
        assert calls == [len(seq)]


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
    # over F_3 an entry x written as "3x/3" reads as x: "6/3" prints what 2 prints
    payload = system_to_json(s)
    payload.update({key: [f"{3 * x}/3" for x in payload[key]] for key in ("A", "B", "C")})
    assert "6/3" in payload["A"] + payload["B"] + payload["C"]
    unreduced = write_json(tmp_path / "unreduced.json", payload)
    for command in ("analyze", "canon", "embed"):
        _, reduced, _ = run(capsys, [command, "--system", paths[1]])
        assert run(capsys, [command, "--system", unreduced]) == (0, reduced, "")


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


def test_cli_commands_leave_sympy_unimported(simple_system_file, tmp_path):
    # Each command in a fresh interpreter loads exactly the package modules it
    # uses, and none loads quiver or sympy; only the census, which enumerates
    # with numpy, loads numpy.  A bare import loads no submodule.
    import subprocess
    import sys

    fq_system = write_json(tmp_path / "fq.json", system_to_json(
        random_system(Field.prime(5), 2, 3, 1, random.Random(7), require="canonical")))
    markov = write_json(tmp_path / "fib.json",
                        MarkovSequence.from_scalars(Field.rationals(), [1, 1, 2, 3, 5, 8]).to_json())
    every = {"cli", "errors", "linalg", "system"}
    cases = [([], set())]
    for path in (simple_system_file, fq_system):
        cases += [(["analyze", "--system", path], every | {"kalman"}),
                  (["canon", "--system", path], every | {"kalman"}),
                  (["embed", "--system", path], every | {"grassmann", "kalman"})]
    cases.append((["realize", "--markov", markov], every | {"realization"}))
    cases.append((["random", "--field", "5", "--m", "2", "--n", "3", "--p", "1", "--seed", "7", "--cc"], every))
    cases.append((["census", "--m", "1", "--p", "1", "--n-max", "1", "--q", "2"], every | {"counting"}))
    script = (
        "import json, sys\n"
        "import moduli_sys\n"
        "if sys.argv[1:]:\n"
        "    from moduli_sys.cli import main\n"
        "    assert main(sys.argv[1:]) == 0, sys.argv\n"
        "loaded = sorted(name[len('moduli_sys.'):] for name in sys.modules if name.startswith('moduli_sys.'))\n"
        "print(json.dumps([loaded, 'sympy' in sys.modules, 'numpy' in sys.modules]))\n"
    )
    for argv, expected in cases:
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded, sympy, numpy = json.loads(proc.stdout.splitlines()[-1])
        assert set(loaded) == expected, argv
        assert not sympy, argv
        assert numpy == (argv[:1] == ["census"]), argv


@pytest.mark.parametrize("field, literal", [
    ("Q", "1e300000000"),
    ({"Fp": 5}, "1e300000000"),
    ("Q", "1/0"),
    ({"Fp": 5}, "1/0"),
    ({"Fp": 5}, "1/5"),
], ids=["Q-exponent", "F5-exponent", "Q-zero-denominator", "F5-zero-denominator", "F5-denominator-q"])
def test_hostile_scalar_literal_fails_fast(field, literal, tmp_path):
    # scalars are "a" or "a/b": no exponent to expand, no denominator that vanishes in the field
    import subprocess
    import sys

    path = write_json(tmp_path / "sys.json", {
        "field": field, "m": 1, "n": 1, "p": 1, "A": [literal], "B": ["1"], "C": ["1"],
    })
    proc = subprocess.run(
        [sys.executable, "-m", "moduli_sys", "analyze", "--system", path],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "INVALID_INPUT" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("key, value", [("m", 1.5), ("n", 1.9), ("Fp", 5.5), ("m", True)])
def test_non_integer_dimension_is_refused(key, value, tmp_path, capsys):
    payload = {"field": {"Fp": 5}, "m": 1, "n": 1, "p": 1, "A": [2], "B": [1], "C": [3]}
    if key == "Fp":
        payload["field"] = {"Fp": value}
    else:
        payload[key] = value
    code, out, err = run(capsys, ["analyze", "--system", write_json(tmp_path / "sys.json", payload)])
    assert code == 1 and out == ""
    assert f"INVALID_INPUT: {key} must be an integer, got {value!r}" in err


@pytest.mark.parametrize("field, entry", [("Q", True), ({"Fp": 5}, False), ({"Fp": 5}, True)],
                         ids=["Q-true", "F5-false", "F5-true"])
def test_boolean_scalar_is_refused(field, entry, tmp_path, capsys):
    payload = {"field": field, "m": 1, "n": 1, "p": 1, "A": [entry], "B": [1], "C": [3]}
    code, out, err = run(capsys, ["analyze", "--system", write_json(tmp_path / "sys.json", payload)])
    assert code == 1 and out == ""
    assert f"INVALID_INPUT: boolean {entry!r} is not a scalar" in err


def test_markov_dimensions_must_be_integers(tmp_path, capsys):
    doc = MarkovSequence.from_scalars(Field.prime(5), [1, 1, 2, 3, 5, 8]).to_json()
    code, _, _ = run(capsys, ["realize", "--markov", write_json(tmp_path / "ok.json", dict(doc, m="1"))])
    assert code == 0  # integer strings load as before
    code, out, err = run(capsys, ["realize", "--markov", write_json(tmp_path / "bad.json", dict(doc, p=1.0))])
    assert code == 1 and out == ""
    assert "INVALID_INPUT: p must be an integer, got 1.0" in err


def _system_payload(m, n, p):
    return {"field": "Q", "m": m, "n": n, "p": p, "A": [1] * (n * n), "B": [1] * (n * m), "C": [1] * (p * n)}


def _markov_payload(m, p, window):
    return {"field": "Q", "m": m, "p": p, "blocks": [[1] * (p * m) for _ in range(window)]}


@pytest.mark.parametrize("argv, payload, message", [
    (["realize", "--markov"], {"field": "Q", "m": -1, "p": -1, "blocks": [[], []]}, "m must be non-negative, got -1"),
    (["realize", "--markov"], dict(_markov_payload(1, 1, 3), p=-2), "p must be non-negative, got -2"),
    (["analyze", "--system"], dict(_system_payload(1, 1, 1), m=-1), "m must be non-negative, got -1"),
    (["analyze", "--system"], dict(_system_payload(1, 1, 1), n=-1), "n must be non-negative, got -1"),
    (["canon", "--system"], dict(_system_payload(1, 1, 1), p=-3), "p must be non-negative, got -3"),
    (["random", "--m", "1", "--n", "-2", "--p", "1"], None, "n must be non-negative, got -2"),
], ids=["markov-m-and-p", "markov-p", "system-m", "system-n", "system-p", "random-n"])
def test_negative_dimension_is_refused(argv, payload, message, tmp_path, capsys):
    # refused by name, not by an entry count that no array can have
    if payload is not None:
        argv = argv + [write_json(tmp_path / "input.json", payload)]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert f"INVALID_INPUT: {message}" in err


@pytest.mark.parametrize("command, flag, payload, message", [
    ("analyze", "--system", _system_payload(1, MAX_DIM + 1, 1), "n = 65 is too large"),
    ("analyze", "--system", _system_payload(MAX_DIM, MAX_DIM, 1), "8256 scalars are too many"),
    ("realize", "--markov", _markov_payload(1, MAX_DIM + 1, 3), "p = 65 is too large"),
    ("realize", "--markov", _markov_payload(1, 1, 2 * MAX_DIM + 2), "a window of 130 blocks is too long"),
    ("realize", "--markov", _markov_payload(16, 16, 33), "8448 scalars are too many"),
], ids=["system-dimension", "system-entries", "markov-dimension", "markov-window", "markov-entries"])
def test_oversized_input_fails_fast(command, flag, payload, message, tmp_path):
    # well-formed but past MAX_DIM or MAX_ENTRIES: refused before any scalar is read
    import subprocess
    import sys

    path = write_json(tmp_path / "input.json", payload)
    proc = subprocess.run(
        [sys.executable, "-m", "moduli_sys", command, flag, path],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "INVALID_INPUT" in proc.stderr and message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, payload, message", [
    (["analyze", "--system"], dict(_system_payload(1, 2, 1), A=[1, 2, 3]), "INVALID_INPUT: A must have 4 entries, got 3"),
    (["analyze", "--system"], _system_payload(MAX_DIM, MAX_DIM, 1), "INVALID_INPUT: 8256 scalars are too many"),
    (["realize", "--markov"], dict(_markov_payload(2, 2, 3), blocks=[[1, 2, 3, 4], [1, 2, 3]]),
     "INVALID_INPUT: a block must have 4 entries, got 3"),
    (["realize", "--markov"], _markov_payload(1, 1, 2 * MAX_DIM + 2), "INVALID_INPUT: a window of 130 blocks is too long"),
], ids=["system-entry-count", "system-entries", "markov-entry-count", "markov-window"])
def test_entry_counts_and_caps_are_refused_in_process(argv, payload, message, tmp_path, capsys):
    # the subprocess test above times the caps; here the refusals run in the test process
    code, out, err = run(capsys, argv + [write_json(tmp_path / "input.json", payload)])
    assert (code, out) == (1, "")
    assert message in err


def test_inputs_at_the_caps_are_read():
    # the caps are inclusive: the largest accepted shapes still load
    assert system_from_json(_system_payload(1, MAX_DIM, 1)).n == MAX_DIM
    assert len(MarkovSequence.from_json(_markov_payload(1, 1, 2 * MAX_DIM + 1))) == 2 * MAX_DIM + 1


@pytest.mark.parametrize("key, value, kind", [
    ("A", "1234", "str"), ("A", {"2": 0}, "dict"), ("B", "10", "str"), ("C", 1, "int"),
], ids=["A-string", "A-object", "B-string", "C-scalar"])
def test_system_entries_must_be_arrays(key, value, kind, tmp_path, capsys):
    # a string or object has a length and iterates, so it used to load character by character
    payload = dict(_system_payload(1, 2, 1), **{key: value})
    code, out, err = run(capsys, ["analyze", "--system", write_json(tmp_path / "sys.json", payload)])
    assert code == 1 and out == ""
    assert f"INVALID_INPUT: {key} must be an array, got {kind}" in err


@pytest.mark.parametrize("blocks, message", [
    (["1", "1", "2", "3", "5"], "a block must be an array, got str"),
    ([[1], {"1": 1}, [2]], "a block must be an array, got dict"),
    ("11235", "blocks must be an array, got str"),
    ({"1": [1], "2": [1]}, "blocks must be an array, got dict"),
], ids=["string-blocks", "object-block", "string-window", "object-window"])
def test_markov_blocks_must_be_arrays(blocks, message, tmp_path, capsys):
    payload = dict(_markov_payload(1, 1, 5), blocks=blocks)
    code, out, err = run(capsys, ["realize", "--markov", write_json(tmp_path / "seq.json", payload)])
    assert code == 1 and out == ""
    assert f"INVALID_INPUT: {message}" in err


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


@pytest.mark.parametrize("command, payload, message", [
    (["analyze", "--system"], [1, 2], "a system must be a JSON object, got list"),
    (["realize", "--markov"], [1, 2], "a Markov sequence must be a JSON object, got list"),
    (["analyze", "--system"], "abc", "a system must be a JSON object, got str"),
    (["analyze", "--system"], _without(_system_payload(1, 2, 1), "C"), "a system has no 'C' key"),
    (["realize", "--markov"], _without(_markov_payload(1, 1, 5), "field"), "a Markov sequence has no 'field' key"),
], ids=["system-array", "markov-array", "system-string", "system-without-C", "markov-without-field"])
def test_documents_must_be_objects_with_every_key(command, payload, message, tmp_path, capsys):
    # indexing an array or a string, or a missing key, used to fail with a message that named no field
    code, out, err = run(capsys, command + [write_json(tmp_path / "doc.json", payload)])
    assert code == 1 and out == ""
    assert f"INVALID_INPUT: {message}" in err


def test_random_refuses_a_shape_no_command_reads(capsys):
    # n = MAX_DIM + 1 only: the shape is refused before any entry is drawn
    code, out, err = run(capsys, ["random", "--m", "1", "--n", str(MAX_DIM + 1), "--p", "1"])
    assert code == 1 and out == ""
    assert f"INVALID_INPUT: n = {MAX_DIM + 1} is too large" in err
