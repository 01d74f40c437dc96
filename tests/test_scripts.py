import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import gccodec as g
from gccodec import galois
from gccodec.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd=None):
    src = str(Path(g.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_demo_specs_drive_the_cli(capsys, tmp_path):
    outdir = tmp_path / "demo"
    proc = run_script("make_demo_specs.py", str(outdir))
    assert proc.returncode == 0, proc.stderr
    specs = sorted(p for p in outdir.glob("*.json") if p.stem.startswith(("cc_", "gcc_", "mpc_")))
    assert len(specs) == 5
    for spec in specs:
        assert main(["code-info", "--spec", str(spec)]) == 0
    assert main(["nsc-check", "--matrix", str(outdir / "matrix_uvw.json")]) == 0
    assert main(["simulate", "--config", str(outdir / "simulate_uuv.json")]) == 0
    stats = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert stats["trials"] == 2000 and not stats["violation"]
    assert len((outdir / "run.jsonl").read_text().splitlines()) == 2001


def test_demo_specs_help_writes_nothing(tmp_path):
    proc = run_script("make_demo_specs.py", "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "outdir" in proc.stdout
    assert not any(tmp_path.iterdir())


def test_wer_sweep(tmp_path):
    proc = run_script("wer_sweep.py", "--trials", "20", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "error_rate,trials,wer_upto,wer_beyond,mean_inner,mean_outer"
    assert len(lines) == 6


# sha256 of the spec files make_demo_specs.py writes: the on-disk format of
# fields, codes and constructions, which a change has to move on purpose.
DEMO_SPEC_SHA256 = {
    "cc_rs256_gf16.json": "c15ec0541992d48899ce1d4f0887e3b62d24eb756462832562b63b0961e52851",
    "cc_small.json": "9e9e03ef59175c99bbc03037e0003d1c6d9a83378f3bcc994b95739a60fd2c0c",
    "gcc_rm_chain_gf2.json": "27b35b83c31ed39ab1683ede07f17b71abb7dbe898ba4a8c9e19e39be159df62",
    "matrix_uvw.json": "7b9ab424e4dc8ad961be402598471a19b9635fcd5232be20420c0494d880b1ca",
    "mpc_uuv_gf8.json": "3d483dafc9b8e000aa9b042d7d0b2013aa9c46f8ae74fa7c27b37633ef4a6d17",
    "mpc_uvw_gf3.json": "9e1c1c7c850770bd2f8061968b063680fb2bc332c787d03db585efa2fccc345e",
}


def test_demo_spec_files_are_pinned(tmp_path):
    assert run_script("make_demo_specs.py", str(tmp_path)).returncode == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.json")}
    written.pop("simulate_uuv.json")  # it names the output directory
    assert written == DEMO_SPEC_SHA256


# decode_digest.py --words 30 on the demo specs; a change that moves a
# decision has to change these lines on purpose.  mpc_uvw_gf3's line moved
# when the improved GCC decoder started to judge a known-wrong row by the
# distance of the subcode that decoded it, and to keep it erased until a
# re-decode replaces it.
DEMO_DIGESTS = [
    "cc_rs256_gf16.json 240 49289d14ba7d2031ca52ab33d67e9d3e603603b9fb4e8b3a19387298d48f4881",
    "cc_small.json 300 9ec9829fb8d4974294b17d30901edb9befab55d16df04f27611ae6861c879c93",
    "gcc_rm_chain_gf2.json 120 70903eef77756015c63f43365f5bec09465c728852b20e6f848a7972b4c6bea9",
    "mpc_uuv_gf8.json 180 3e9a83c71b3b7b73bb1c7f432f0dbf1b281a7ffb9db92ac0225f0f69378f6f7b",
    "mpc_uvw_gf3.json 150 77272a6b6b40cc8cdf60673de9df1a1be0bf3c0b129d0bb9ef7597cac72affd3",
]


def test_decode_digest_is_reproducible(tmp_path):
    assert run_script("make_demo_specs.py", str(tmp_path)).returncode == 0
    specs = sorted(str(p) for p in tmp_path.glob("*.json") if p.stem.startswith(("cc_", "gcc_", "mpc_")))
    assert len(specs) == 5
    runs = [run_script("decode_digest.py", *specs, "--words", "30") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == lines
    assert lines == DEMO_DIGESTS


def test_benchmark_hooks_install_and_undo():
    """perfbench/tracing.py wraps gccodec functions by name: every name it
    wraps exists, the counters see Field.mul, and undo restores each one."""
    path = SCRIPTS.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = galois.Field.mul, galois.Field._build_mul_table, galois.poly_mul
    gf8 = g.make_field(2, 3)
    tracer, patches, counts = tracing.Tracer(), tracing.Patches(), Counter()
    try:
        tracing.install_spans(tracer)
        tracing.install_counters(counts, patches)
        gf8.mul(3, 5)
    finally:
        patches.undo()
        tracer.patches.undo()
    assert counts["mul"] == 1
    assert (galois.Field.mul, galois.Field._build_mul_table, galois.poly_mul) == originals
