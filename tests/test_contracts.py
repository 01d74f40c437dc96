"""Malformed words end in a CodecError at every library decoder, and the
decoders' own guarantees are raised checks that survive python -O."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gccodec as g
from gccodec import concat, gmd, mpc, specio
from gccodec.cli import main

MALFORMED = {
    "cc_decode-int": ("cc_small", lambda s: g.cc_decode(s, 5)),
    "cc_decode-int-rows": ("cc_small", lambda s: g.cc_decode(s, [5, 5, 5])),
    "cc_decode-str": ("cc_small", lambda s: g.cc_decode(s, "abc")),
    "mpc_decode-int": ("mpc_uuv8", lambda s: g.mpc_decode(s, 5)),
    "gcc_decode_basic-int-rows": ("mpc_uuv8", lambda s: g.gcc_decode_basic(s.gcc, [7] * 7)),
    "gcc_decode_improved-int-rows": ("mpc_uuv8", lambda s: g.gcc_decode_improved(s.gcc, [7] * 7)),
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
            g.gcc_decode_improved(mpc_uuv8.gcc, word)

    def test_chain_trial_bound(self, monkeypatch, gf8):
        rs = g.rs_code(gf8, 7, 3)
        monkeypatch.setattr(gmd, "trial_bound", lambda d: 0)
        with pytest.raises(g.ContractViolation):
            g.gmd_decode(rs, rs.encode((1, 2, 3)), g.ReliabilityVector((1,) * 7, 1))

    def test_carried_row_left_subcode(self, monkeypatch, mpc_uuv8):
        word = g.mpc_encode(mpc_uuv8, [(1, 2, 3, 4, 5), (6,)])
        monkeypatch.setattr(g.LinearCode, "contains", lambda code, w: False)
        with pytest.raises(g.ContractViolation):
            g.gcc_decode_improved(mpc_uuv8.gcc, word)

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
