import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gccodec as g
from gccodec import specio
from gccodec.cli import main


@pytest.fixture()
def mpc_spec_file(tmp_path, mpc_uuv8):
    path = tmp_path / "mpc.json"
    path.write_text(json.dumps(specio.mpc_to_json(mpc_uuv8)))
    return str(path)


@pytest.fixture()
def code_spec_file(tmp_path, gf8):
    path = tmp_path / "rs.json"
    path.write_text(json.dumps(specio.code_to_json(g.rs_code(gf8, 7, 3))))
    return str(path)


@pytest.fixture()
def cc_spec_file(tmp_path, cc_small):
    path = tmp_path / "cc.json"
    path.write_text(json.dumps(specio.concat_to_json(cc_small)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestEncodeDecode:
    def test_plain_code_roundtrip(self, capsys, code_spec_file):
        code, out = run(capsys, ["encode", "--spec", code_spec_file, "--msg", "[1,2,3]"])
        assert code == 0
        word = out["codeword"]
        code, out = run(
            capsys, ["decode", "--spec", code_spec_file, "--word", json.dumps(word)]
        )
        assert code == 0
        assert out["message"] == [1, 2, 3]

    def test_matrix_roundtrip(self, capsys, mpc_spec_file, mpc_uuv8):
        code, out = run(
            capsys,
            ["encode", "--spec", mpc_spec_file, "--msg", "[[1,2,3,4,5],[6]]"],
        )
        assert code == 0
        assert out["shape"] == [7, 2]
        word = out["codeword"]
        word[0] = (word[0] + 1) % 8  # one symbol error
        code, out = run(
            capsys,
            ["decode", "--spec", mpc_spec_file, "--word", json.dumps(word), "--report"],
        )
        assert code == 0
        assert out["messages"] == [[1, 2, 3, 4, 5], [6]]
        assert out["report"]["ok"]

    def test_decode_failure_exit_code(self, capsys, tmp_path, cc_small):
        spec_path = tmp_path / "cc.json"
        spec_path.write_text(json.dumps(specio.concat_to_json(cc_small)))
        import itertools

        stuck = next(
            w
            for w in itertools.product(range(2), repeat=5)
            if not cc_small.inner.decode(w).ok
        )
        word = list(stuck) * 3
        code = main(["decode", "--spec", str(spec_path), "--word", json.dumps(word)])
        capsys.readouterr()
        assert code == 1

    def test_erasure_flag(self, capsys, code_spec_file, gf8):
        rs = g.rs_code(gf8, 7, 3)
        word = list(rs.encode((1, 2, 3)))
        word[0] = 0
        word[4] = 0
        code, out = run(
            capsys,
            [
                "decode",
                "--spec",
                code_spec_file,
                "--word",
                json.dumps(word),
                "--erasures",
                "[0,4]",
            ],
        )
        assert code == 0
        assert out["message"] == [1, 2, 3]


def _spec_json(kind, request):
    if kind == "rs":
        return specio.code_to_json(g.rs_code(request.getfixturevalue("gf8"), 7, 3))
    if kind == "cc":
        return specio.concat_to_json(request.getfixturevalue("cc_two_cols"))
    if kind == "gcc":
        return specio.gcc_to_json(request.getfixturevalue("mixed_spec"))
    return specio.mpc_to_json(request.getfixturevalue("mpc_uuv8"))


# kind: (messages, flipped (position, xor) pairs, erasures, then the encode,
# decode --report and code-info outputs recorded before the CLI dispatched
# through experiment.construction)
ROUND_TRIPS = {
    "rs": (
        [1, 2, 3],
        [(0, 5), (4, 3)],
        None,
        {"codeword": [1, 0, 2, 3, 3, 2, 0], "shape": [7]},
        {"codeword": [1, 0, 2, 3, 3, 2, 0], "message": [1, 2, 3]},
        {"d": 5, "exact": True, "k": 3, "n": 7},
    ),
    "cc": (
        [[1, 2], [3, 0]],
        [(0, 1), (9, 1), (27, 1)],
        [[], [], [2], []],
        {
            "codeword": [1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1],
            "shape": [4, 7],
        },
        {
            "messages": [[1, 2], [3, 0]],
            "report": {
                "codeword": [[1, 0, 1, 1, 0, 1, 0], [1, 1, 1, 1, 1, 1, 1], [0, 1, 1, 1, 1, 0, 0], [0, 0, 1, 1, 0, 0, 1]],
                "columns": [[1, 3, 2, 0], [3, 3, 3, 3]],
                "failed_levels": [],
                "gmd_trials": [1, 1],
                "inner_invocations": [4],
                "messages": [[1, 2], [3, 0]],
                "ok": True,
                "outer_invocations": [1, 1],
                "row_skips": [],
            },
        },
        {"d_star": 9, "exact": False, "k": 4, "n": 28},
    ),
    "gcc": (
        [[3], [1, 0]],
        [(1, 1), (13, 1)],
        None,
        {
            "codeword": [1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0],
            "shape": [4, 7],
        },
        {
            "messages": [[3], [1, 0]],
            "report": {
                "codeword": [[1, 1, 1, 1, 0, 0, 0], [1, 1, 0, 0, 0, 1, 1], [1, 1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 0, 0, 0]],
                "columns": [[3, 3, 3, 3], [1, 0, 1, 1]],
                "failed_levels": [],
                "gmd_trials": [1, 1],
                "inner_invocations": [0, 4],
                "messages": [[3], [1, 0]],
                "ok": True,
                "outer_invocations": [1, 1],
                "row_skips": [{"NotInSuT": 4}, {}],
            },
        },
        {"d_star": 8, "exact": False, "k": 3, "n": 28},
    ),
    "mpc": (
        [[1, 2, 3, 4, 5], [6]],
        [(0, 1), (7, 4)],
        None,
        {"codeword": [1, 7, 1, 7, 6, 0, 3, 5, 0, 6, 3, 5, 3, 5], "shape": [7, 2]},
        {
            "messages": [[1, 2, 3, 4, 5], [6]],
            "report": {
                "codeword": [[1, 7], [1, 7], [6, 0], [3, 5], [0, 6], [3, 5], [3, 5]],
                "columns": [[1, 1, 6, 3, 0, 3, 3], [6, 6, 6, 6, 6, 6, 6]],
                "failed_levels": [],
                "gmd_trials": [1, 1],
                "inner_invocations": [0, 7],
                "messages": [[1, 2, 3, 4, 5], [6]],
                "ok": True,
                "outer_invocations": [1, 1],
                "row_skips": [{"NotInSuT": 5, "SkipCondEq8": 2}, {}],
            },
        },
        {"d_star": 6, "exact": True, "k": 6, "n": 14},
    ),
}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
def test_round_trip_outputs_are_unchanged(capsys, tmp_path, request, kind):
    msgs, flips, erasures, encoded, decoded, info = ROUND_TRIPS[kind]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec_json(kind, request)))
    spec = ["--spec", str(path)]
    assert run(capsys, ["encode", *spec, "--msg", json.dumps(msgs)]) == (0, encoded)
    word = list(encoded["codeword"])
    for pos, delta in flips:
        word[pos] ^= delta
    argv = ["decode", *spec, "--word", json.dumps(word), "--report"]
    if erasures is not None:
        argv += ["--erasures", json.dumps(erasures)]
    assert run(capsys, argv) == (0, decoded)
    assert run(capsys, ["code-info", *spec]) == (0, info)
    if kind in ("gcc", "mpc"):
        # multistage decoding is errors-only: erasures are a usage error
        pattern = [[0]] + [[]] * (encoded["shape"][0] - 1)
        assert main(argv + ["--erasures", json.dumps(pattern)]) == 2


# kind: (messages, flipped bit positions, erasures) of a word the decoder
# gives up on: its report has no column for the failed level
FAILING_WORDS = {
    "cc": ([[1, 2], [3, 0]], [0, 8, 16, 24], [[6], [], [], []]),
    "gcc": ([[3], [1, 0]], [0, 3, 7, 10, 14, 17, 21, 24], None),
    "mpc": ([[1, 2, 3, 4, 5], [6]], [0, 1, 2], None),
}


@pytest.mark.parametrize("kind", sorted(FAILING_WORDS))
def test_decode_failure_report(capsys, tmp_path, request, kind):
    msgs, flips, erasures = FAILING_WORDS[kind]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec_json(kind, request)))
    spec = ["--spec", str(path)]
    word = run(capsys, ["encode", *spec, "--msg", json.dumps(msgs)])[1]["codeword"]
    for pos in flips:
        word[pos] ^= 1
    argv = ["decode", *spec, "--word", json.dumps(word), "--report"]
    if erasures is not None:
        argv += ["--erasures", json.dumps(erasures)]
    code, out = run(capsys, argv)
    assert code == 1
    report = out["report"]
    assert not report["ok"] and report["failed_levels"]
    for level in report["failed_levels"]:
        assert report["columns"][level - 1] is None
        assert report["messages"][level - 1] is None


# kind, path to a spec field, a non-integer value int() would have accepted
NON_INTEGER_FIELDS = [
    ("rs", ("n",), 7.9),
    ("rs", ("k",), 3.2),
    ("rs", ("field", "p"), 2.9),
    ("rs", ("field", "m"), 3.5),
    ("cc", ("s",), "2"),
    ("gcc", ("s",), [2.6, 1]),
    ("cc", ("inner", "d"), 3.0),
    ("gcc", ("subcode_distances",), [4.0, 4]),
]


@pytest.mark.parametrize(
    "kind, path, value",
    NON_INTEGER_FIELDS,
    ids=[f"{k}-{'.'.join(p)}" for k, p, _ in NON_INTEGER_FIELDS],
)
def test_non_integer_spec_field(capsys, tmp_path, request, kind, path, value):
    data = _spec_json(kind, request)
    entry = data
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data))
    assert main(["code-info", "--spec", str(spec_path)]) == 2
    assert "must be integers" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file(self, capsys):
        assert main(["code-info", "--spec", "/nonexistent.json"]) == 2

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["code-info", "--spec", str(path)]) == 2

    def test_erasure_index_out_of_range(self, capsys, code_spec_file):
        argv = ["decode", "--spec", code_spec_file, "--word", json.dumps([0] * 7)]
        assert main(argv + ["--erasures", "[99]"]) == 2
        assert "erasure index 99" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["5", "[[1]]", "[1.5]", '["a"]'])
    def test_malformed_erasures(self, capsys, code_spec_file, bad):
        argv = ["decode", "--spec", code_spec_file, "--word", json.dumps([0] * 7)]
        assert main(argv + ["--erasures", bad]) == 2
        assert "erasures must be" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [8, 300, -1])
    def test_symbol_out_of_range(self, capsys, code_spec_file, bad):
        word = [bad] + [0] * 6
        assert main(["decode", "--spec", code_spec_file, "--word", json.dumps(word)]) == 2
        assert "not an element encoding" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "bad", ["[1.5,0,0,0,0,0,0]", '[0,0,0,0,0,0,"1"]', "[true,0,0,0,0,0,0]", "5", '"0000000"']
    )
    def test_malformed_word(self, capsys, code_spec_file, bad):
        # int() would turn 1.5 and "1" into 1 and decode to the zero codeword
        assert main(["decode", "--spec", code_spec_file, "--word", bad]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        ["7", "[0.9" + ",0" * 14 + "]", "[" + "0," * 14 + '"1"]', "[[0,0,0,0,0],3,[0,0,0,0,0]]"],
    )
    def test_malformed_concat_word(self, capsys, cc_spec_file, bad):
        assert main(["decode", "--spec", cc_spec_file, "--word", bad]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad", ["5", "[1,2,3]", "[[1.5],[],[]]", '[["1"],[],[]]', "[[9],[],[]]"]
    )
    def test_malformed_concat_erasures(self, capsys, cc_spec_file, bad):
        argv = ["decode", "--spec", cc_spec_file, "--word", json.dumps([0] * 15)]
        assert main(argv + ["--erasures", bad]) == 2
        assert "error:" in capsys.readouterr().err


class TestInfoAndChecks:
    def test_code_info(self, capsys, mpc_spec_file):
        code, out = run(capsys, ["code-info", "--spec", mpc_spec_file])
        assert code == 0
        assert out == {"n": 14, "k": 6, "d_star": 6, "exact": True}

    def test_nsc_check(self, capsys, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(
            json.dumps(
                {
                    "field": {"p": 3, "m": 1, "modulus": [0, 1]},
                    "matrix": [[1, 2, 1], [1, 1, 0], [1, 0, 0]],
                    "outer_distances": [7, 5, 3],
                }
            )
        )
        code, out = run(capsys, ["nsc-check", "--matrix", str(path)])
        assert code == 0
        assert out["nsc"] and out["triangular"] and out["exact"]
        assert out["d_star"] == 3

    def test_simulate(self, capsys, tmp_path, mpc_spec_file):
        out_path = tmp_path / "run.jsonl"
        config = {
            "spec": mpc_spec_file,
            "channel": {"error_rate": 0.05, "seed": 11},
            "trials": 40,
            "decoder": {"mode": "beyond"},
            "output": str(out_path),
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(config))
        code, out = run(capsys, ["simulate", "--config", str(cfg_path)])
        assert code == 0
        assert out["trials"] == 40
        assert not out["violation"]
        assert len(out_path.read_text().splitlines()) == 41


# (command, key path into its input file, value that must not be coerced)
BAD_RUN_INPUTS = [
    ("simulate", ("trials",), 3.7),
    ("simulate", ("trials",), "5"),
    ("simulate", ("channel", "seed"), 3.7),
    ("simulate", ("channel", "seed"), "3"),
    ("simulate", ("channel", "error_rate"), "0.1"),
    ("simulate", ("decoder", "carry_over"), "yes"),
    ("simulate", ("threads",), 1.0),
    ("nsc-check", ("outer_distances",), [7.9, 5, 3]),
]


@pytest.mark.parametrize(
    "command, path, value",
    BAD_RUN_INPUTS,
    ids=[f"{c}-{'.'.join(p)}-{v!r}" for c, p, v in BAD_RUN_INPUTS],
)
def test_run_inputs_are_not_coerced(capsys, tmp_path, mpc_spec_file, command, path, value):
    if command == "simulate":
        data = {
            "spec": mpc_spec_file,
            "channel": {"error_rate": 0.05, "seed": 11},
            "trials": 5,
            "decoder": {"mode": "upto", "carry_over": False},
            "threads": 1,
        }
        flag = "--config"
    else:
        data = {
            "field": {"p": 3, "m": 1, "modulus": [0, 1]},
            "matrix": [[1, 2, 1], [1, 1, 0], [1, 0, 0]],
            "outer_distances": [7, 5, 3],
        }
        flag = "--matrix"
    entry = data
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    file = tmp_path / "input.json"
    file.write_text(json.dumps(data))
    assert main([command, flag, str(file)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# (command, input kind, key path into the input (empty: the whole file), the
# value put there (None: the entry is deleted), text the error must name);
# a missing entry used to print only the bare key, and a non-object where an
# object belongs raised an uncaught TypeError
MALFORMED_INPUTS = [
    ("simulate", "config", (), [1, 2], "a simulation config must be a JSON object"),
    ("simulate", "config", ("channel",), None, "lacks the entry 'channel'"),
    ("simulate", "config", ("trials",), None, "lacks the entry 'trials'"),
    ("simulate", "config", ("channel", "error_rate"), None, "lacks the entry 'error_rate'"),
    ("simulate", "config", ("channel",), [0.1], "channel must be a JSON object"),
    ("simulate", "config", ("decoder",), "beyond", "decoder must be a JSON object"),
    ("code-info", "cc", ("inner",), 5, "a code must be a JSON object"),
    ("code-info", "cc", ("outer", "field"), None, "lacks the entry 'field'"),
    ("code-info", "rs", ("field",), 7, "a field must be a JSON object"),
    ("code-info", "rs", ("field", "m"), None, "lacks the entry 'm'"),
    ("code-info", "mpc", ("outers",), {"n": 7}, "outers must be a list"),
    ("code-info", "rs", (), [1, 2], "a spec must be a JSON object"),
    ("nsc-check", "matrix", ("field",), None, "lacks the entry 'field'"),
    ("nsc-check", "matrix", ("matrix",), [], "non-empty list of rows"),
    ("nsc-check", "matrix", ("outer_distances",), [7, 5], "one entry per matrix row"),
]


@pytest.mark.parametrize(
    "command, kind, path, value, message",
    MALFORMED_INPUTS,
    ids=[f"{c}-{k}-{'.'.join(p) or 'file'}-{v!r}" for c, k, p, v, _ in MALFORMED_INPUTS],
)
def test_malformed_inputs_name_the_entry(
    capsys, tmp_path, request, mpc_spec_file, command, kind, path, value, message
):
    if kind == "config":
        data = {"spec": mpc_spec_file, "channel": {"error_rate": 0.05}, "trials": 5}
    elif kind == "matrix":
        data = {
            "field": {"p": 3, "m": 1, "modulus": [0, 1]},
            "matrix": [[1, 2, 1], [1, 1, 0], [1, 0, 0]],
            "outer_distances": [7, 5, 3],
        }
    else:
        data = _spec_json(kind, request)
    if not path:
        data = value
    else:
        entry = data
        for key in path[:-1]:
            entry = entry[key]
        if value is None:
            del entry[path[-1]]
        else:
            entry[path[-1]] = value
    file = tmp_path / "input.json"
    file.write_text(json.dumps(data))
    flag = {"simulate": "--config", "nsc-check": "--matrix"}.get(command, "--spec")
    assert main([command, flag, str(file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# (kind, {key path into the spec: value put there}): non-lists where a
# matrix or a modulus belongs, and empty outer lists, ended in a traceback
# (exit 1); modulus coefficients that int(c) % p turned into x^3 + x + 1
# were accepted (exit 0); so were an unknown code kind (read as generic), an
# rs d other than n - k + 1 (ignored), extra subcode distances (ignored) and
# a declared d below 1, while too few subcode distances and a ragged B ended
# in an IndexError traceback
MALFORMED_SPECS = [
    ("cc", {("inner", "generator"): 5}),
    ("cc", {("inner", "generator"): [5]}),
    ("gcc", {("inner_generator",): 5}),
    ("mpc", {("B",): 5}),
    ("rs", {("field", "modulus"): 5}),
    ("gcc", {("outers",): [], ("s",): [], ("inner_generator",): []}),
    ("mpc", {("outers",): [], ("B",): []}),
    ("rs", {("field", "modulus"): [1, 1.9, 0, 1]}),
    ("rs", {("field", "modulus"): ["1", "1", "0", "1"]}),
    ("rs", {("field", "modulus"): [3, 1, 0, 1]}),
    ("rs", {("field", "modulus"): [True, 1, 0, 1]}),
    ("cc", {("inner", "kind"): "bch"}),
    ("rs", {("d",): 4}),
    ("cc", {("outer", "d"): 4}),
    ("gcc", {("subcode_distances",): [4]}),
    ("gcc", {("subcode_distances",): [4, 4, 4]}),
    ("mpc", {("B",): [[1, 1], [0]]}),
    ("cc", {("inner", "d"): 0}),
    ("cc", {("inner", "d"): -3}),
]


@pytest.mark.parametrize(
    "kind, edits",
    MALFORMED_SPECS,
    ids=[
        f"{k}-" + "-".join(f"{'.'.join(p)}={v!r}" for p, v in e.items()) for k, e in MALFORMED_SPECS
    ],
)
def test_malformed_spec_is_a_usage_error(capsys, tmp_path, request, kind, edits):
    data = _spec_json(kind, request)
    for path, value in edits.items():
        entry = data
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
    file = tmp_path / "spec.json"
    file.write_text(json.dumps(data))
    assert main(["code-info", "--spec", str(file)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "ok " in out and "VIOLATION" not in out


def test_selftest_checks_survive_optimize_flag():
    """Under python -O a broken Field.mul must still fail the selftest."""
    script = (
        "import gccodec.galois as G\n"
        "from gccodec.selftest import run_selftest\n"
        "ok = run_selftest()\n"
        "mul = G.Field.mul\n"
        "G.Field.mul = lambda f, a, b: (mul(f, a, b) + 1) % f.q if a > 1 and b > 1"
        " else mul(f, a, b)\n"
        "print(__debug__, ok, run_selftest())\n"
    )
    src = str(Path(g.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "False"]
