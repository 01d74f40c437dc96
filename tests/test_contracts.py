"""Malformed words end in a CodecError at every library decoder, and the
decoders' own guarantees are raised checks that survive python -O."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gccodec as g
from gccodec import concat, gmd, linalg, mpc, specio
from gccodec.cli import main
from gccodec.experiment import construction

from conftest import corrupt

MALFORMED = {
    "cc_decode-int": ("cc_small", lambda s: g.cc_decode(s, 5)),
    "cc_decode-int-rows": ("cc_small", lambda s: g.cc_decode(s, [5, 5, 5])),
    "cc_decode-str": ("cc_small", lambda s: g.cc_decode(s, "abc")),
    "mpc_decode-int": ("mpc_uuv8", lambda s: g.mpc_decode(s, 5)),
    "gcc_decode_basic-int-rows": ("mpc_uuv8", lambda s: g.gcc_decode_basic(s, [7] * 7)),
    "gcc_decode_improved-int-rows": ("mpc_uuv8", lambda s: g.gcc_decode_improved(s, [7] * 7)),
    "gcc_decode_improved-none": ("mixed_spec", lambda s: g.gcc_decode_improved(s, None)),
    "decode_uuv-int": ("mpc_uuv8", lambda s: g.decode_uuv(s, 5)),
    "decode_uuv_naive-int-row": ("mpc_uuv8", lambda s: g.decode_uuv_naive(s, [[0, 0]] * 6 + [3])),
    "decode_uvw-int-rows": ("mpc_uvw3", lambda s: g.decode_uvw(s, [0] * 7)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_word_is_codec_error(request, case):
    fixture, call = MALFORMED[case]
    with pytest.raises((g.InvalidParams, g.LengthMismatch)):
        call(request.getfixturevalue(fixture))


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_symbols_that_equal_elements_are_rejected_before_any_map(
    monkeypatch, tmp_path, capsys, bad, inner_523, cc_small, mixed_spec
):
    """True and 1.0 equal the element 1 by value, and a RowMap's table and
    array kernels read them so (see linalg.RowMap), so every public entry
    point rejects them with InvalidParams (CLI exit 2) before a map runs."""

    row, rows = linalg.RowMap.row, linalg.RowMap.__call__

    def checked(x):
        assert not any(isinstance(e, (bool, float)) for e in x), f"a RowMap saw the row {x}"
        return x

    monkeypatch.setattr(linalg.RowMap, "row", lambda m, x: row(m, checked(x)))
    monkeypatch.setattr(linalg.RowMap, "__call__", lambda m, xs: rows(m, [checked(x) for x in xs]))
    cc_word = [[0] * 5 for _ in range(3)]
    gcc_word = [[0] * 7 for _ in range(4)]
    cc_word[1][2] = gcc_word[3][0] = bad
    calls = [
        lambda: inner_523.encode((0, bad)),
        lambda: inner_523.decode((0, 0, bad, 0, 0)),
        lambda: g.cc_encode(cc_small, [(bad,)]),
        lambda: g.gcc_encode(mixed_spec, [(0,), (bad, 0)]),
        lambda: g.cc_decode(cc_small, cc_word),
        lambda: g.gcc_decode_basic(mixed_spec, gcc_word),
        lambda: g.gcc_decode_improved(mixed_spec, gcc_word),
    ]
    for call in calls:
        with pytest.raises(g.InvalidParams):
            call()
    path = tmp_path / "cc.json"
    path.write_text(json.dumps(specio.concat_to_json(cc_small)))
    word = json.dumps([x for row in cc_word for x in row])
    assert main(["encode", "--spec", str(path), "--msg", json.dumps([[bad]])]) == 2
    assert main(["decode", "--spec", str(path), "--word", word]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error:") and repr(bad) in line for line in err)


class TestContractViolation:
    def test_cc_class_trial_bound(self, monkeypatch, cc_small):
        monkeypatch.setattr(concat, "trial_bound_cc", lambda cc, erasure_mode=False: 0)
        with pytest.raises(g.ContractViolation):
            g.cc_decode(cc_small, g.cc_encode(cc_small, [(1,)]))

    def test_gcc_class_trial_bound(self, monkeypatch, mpc_uuv8):
        word = g.mpc_encode(mpc_uuv8, [(1, 2, 3, 4, 5), (6,)])
        decode = gmd.gmd_decode
        monkeypatch.setattr(
            gmd, "gmd_decode", lambda *a, **k: dataclasses.replace(decode(*a, **k), trials=99)
        )
        with pytest.raises(g.ContractViolation):
            g.gcc_decode_improved(mpc_uuv8, word)

    def test_chain_trial_bound(self, monkeypatch, gf8):
        rs = g.rs_code(gf8, 7, 3)
        monkeypatch.setattr(gmd, "trial_bound", lambda d: 0)
        with pytest.raises(g.ContractViolation):
            g.gmd_decode(rs, rs.encode((1, 2, 3)), g.ReliabilityVector((1,) * 7, 1))

    def test_carried_row_left_subcode(self, monkeypatch, mpc_uuv8):
        word = g.mpc_encode(mpc_uuv8, [(1, 2, 3, 4, 5), (6,)])
        monkeypatch.setattr(g.LinearCode, "holds", lambda code, w: False)
        with pytest.raises(g.ContractViolation):
            g.gcc_decode_improved(mpc_uuv8, word)

    def test_nsc_prefix_not_mds(self, monkeypatch, gf8):
        monkeypatch.setattr(mpc, "is_nsc", lambda f, m: True)
        outers = [g.rs_code(gf8, 7, 5), g.rs_code(gf8, 7, 1)]
        with pytest.raises(g.ContractViolation):
            g.mpc_spec(outers, [[1, 0], [0, 1]], gf8)

    def test_two_codewords_inside_the_bound(self, monkeypatch, gf2):
        rep = g.generic_code(gf2, [[1, 1, 1]])
        monkeypatch.setattr(g.LinearCode, "distance", lambda code: 7)
        with pytest.raises(g.ContractViolation):
            g.oracle_sigma(rep, (0, 0, 1))

    def test_overstated_distance_in_decode_table(self, gf2):
        # the errors-only table is built with oracle_sigma, so a declared
        # distance above the true one is caught, not decoded to a first hit
        rep = g.generic_code(gf2, [[1, 1, 1]], d=7)
        with pytest.raises(g.ContractViolation):
            rep.decode((0, 0, 1))

    def test_cli_exits_with_violation(self, monkeypatch, capsys, tmp_path, cc_small):
        path = tmp_path / "cc.json"
        path.write_text(json.dumps(specio.concat_to_json(cc_small)))
        monkeypatch.setattr(concat, "trial_bound_cc", lambda cc, erasure_mode=False: 0)
        assert main(["decode", "--spec", str(path), "--word", json.dumps([0] * 15)]) == 3
        assert "violation:" in capsys.readouterr().err


def test_contracts_survive_optimize_flag():
    """Under python -O a non-MDS prefix of an 'NSC' matrix must still raise."""
    script = (
        "import gccodec as g\n"
        "from gccodec import mpc\n"
        "mpc.is_nsc = lambda f, m: True\n"
        "gf8 = g.make_field(2, 3)\n"
        "outers = [g.rs_code(gf8, 7, 5), g.rs_code(gf8, 7, 1)]\n"
        "try:\n"
        "    g.mpc_spec(outers, [[1, 0], [0, 1]], gf8)\n"
        "    raised = None\n"
        "except Exception as exc:\n"
        "    raised = type(exc).__name__\n"
        "print(__debug__, raised)\n"
    )
    src = str(Path(g.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "ContractViolation"]


# decoder(spec, word, options) returning a report, and the fixture it decodes
MISCORRECTING = {
    "cc_decode-cc_two_cols": (lambda s, w, o: g.cc_decode(s, w, None, o)[1], "cc_two_cols"),
    "gcc_decode_basic-mixed_spec": (g.gcc_decode_basic, "mixed_spec"),
    "gcc_decode_improved-mixed_spec": (g.gcc_decode_improved, "mixed_spec"),
    "gcc_decode_basic-gcc_growing_radius": (g.gcc_decode_basic, "gcc_growing_radius"),
    "gcc_decode_improved-gcc_growing_radius": (g.gcc_decode_improved, "gcc_growing_radius"),
    "mpc_decode-mpc_uuv8": (g.mpc_decode, "mpc_uuv8"),
    "mpc_decode-mpc_uvw3": (g.mpc_decode, "mpc_uvw3"),
}


@pytest.mark.parametrize("case", sorted(MISCORRECTING))
def test_miscorrected_codeword_encodes_its_messages(request, case):
    """Beyond d*/2 errors, in beyond mode, a decoder may accept a wrong
    codeword; the report's codeword must still encode the report's messages."""
    decode, fixture = MISCORRECTING[case]
    spec = request.getfixturevalue(fixture)
    c = construction(spec)
    d_star = c.info()["d_star"]
    rng = random.Random(2024)
    miscorrected = 0
    for _ in range(300):
        msgs = [tuple(rng.randrange(a.field.q) for _ in range(a.k)) for a in c.outers]
        word = c.encode(msgs)
        positions = rng.sample(range(c.m * c.n), rng.randint((d_star + 1) // 2, d_star))
        received = corrupt(c.field, word, positions, rng)
        try:
            report = decode(spec, received, g.DecodeOptions(mode="beyond"))
        except g.DecodeFailure:
            continue
        assert report.codeword == c.encode(report.messages)
        miscorrected += report.codeword != word
    assert miscorrected > 0
