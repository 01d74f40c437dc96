#!/usr/bin/env python3
"""Write demo spec and config files for playing with the CLI.

Usage: python scripts/make_demo_specs.py [outdir]
"""

import argparse
import json
import pathlib

import gccodec as g
from gccodec import specio


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", default="demo-specs", help="default: demo-specs")
    outdir = pathlib.Path(parser.parse_args().outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    gf2 = g.make_field(2, 1)
    gf3 = g.make_field(3, 1)
    gf4 = g.extend_field(gf2, 2)
    gf8 = g.make_field(2, 3)

    # two-level (u | u+v) product over GF(8), designed distance 6
    uuv = g.mpc_spec(
        [g.rs_code(gf8, 7, 5), g.rs_code(gf8, 7, 1)], [[1, 1], [0, 1]], gf8
    )
    (outdir / "mpc_uuv_gf8.json").write_text(json.dumps(specio.mpc_to_json(uuv), indent=2))

    # concatenated [3,1,3] over GF(4) with inner [5,2,3] over GF(2)
    cc = g.ConcatCode(
        g.rs_code(gf4, 3, 1),
        g.generic_code(gf2, [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]]),
    )
    (outdir / "cc_small.json").write_text(json.dumps(specio.concat_to_json(cc), indent=2))

    # RS(64,40)/GF(256) over RS(15,8)/GF(16), GF(256) built over GF(16):
    # the large-field concatenated code of the benchmark, designed distance 200
    gf16 = g.make_field(2, 4)
    rs256 = g.ConcatCode(g.rs_code(g.extend_field(gf16, 2), 64, 40), g.rs_code(gf16, 15, 8))
    (outdir / "cc_rs256_gf16.json").write_text(json.dumps(specio.concat_to_json(rs256), indent=2))

    # three-level (u+v+w | 2u+v | u) over GF(3), outer distances (7, 5, 3)
    uvw = g.mpc_spec(
        [
            g.generic_code(gf3, [[1] * 7]),
            g.generic_code(gf3, [[1, 0, 2, 1, 0, 2, 2], [2, 1, 0, 1, 1, 1, 0]]),
            g.generic_code(
                gf3,
                [
                    [2, 1, 1, 1, 0, 2, 2],
                    [0, 1, 0, 2, 2, 0, 1],
                    [2, 0, 2, 0, 2, 0, 2],
                    [1, 2, 1, 0, 2, 1, 1],
                ],
            ),
        ],
        [[1, 2, 1], [1, 1, 0], [1, 0, 0]],
        gf3,
    )
    (outdir / "mpc_uvw_gf3.json").write_text(json.dumps(specio.mpc_to_json(uvw), indent=2))

    sim = {
        "spec": str(outdir / "mpc_uuv_gf8.json"),
        "channel": {"error_rate": 0.05, "erasure_rate": 0.0, "seed": 1},
        "trials": 2000,
        "decoder": {"mode": "upto", "carry_over": False},
        "output": str(outdir / "run.jsonl"),
    }
    (outdir / "simulate_uuv.json").write_text(json.dumps(sim, indent=2))

    nsc = {
        "field": {"p": 3, "m": 1, "modulus": [0, 1]},
        "matrix": [[1, 2, 1], [1, 1, 0], [1, 0, 0]],
        "outer_distances": [7, 5, 3],
    }
    (outdir / "matrix_uvw.json").write_text(json.dumps(nsc, indent=2))

    print(f"wrote specs to {outdir}/")
    print("try:")
    print(f"  gccodec code-info --spec {outdir}/mpc_uuv_gf8.json")
    print(f"  gccodec nsc-check --matrix {outdir}/matrix_uvw.json")
    print(f"  gccodec simulate --config {outdir}/simulate_uuv.json")


if __name__ == "__main__":
    main()
