"""The benchmark's workloads: one construction, channel and decode mode each.

Every workload is decoded one word at a time, each word one
``run_trial(config, t)`` call on a fixed ``ExperimentConfig`` with
``threads=1``: a closed loop with a single caller, as ``gccodec simulate``
runs it.  The channel seed is derived from the benchmark seed, so the same
seed gives the same words.

gccodec is imported inside ``experiment_config`` only, so the runner can read
names and reasons without the library on its path.
"""

from __future__ import annotations

from dataclasses import dataclass

# Hamming [7,4,3] generator, the inner code of tests/conftest.py::cc_two_cols.
HAMMING_7_4_3 = (
    (1, 0, 0, 0, 0, 1, 1),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 1, 1, 0),
    (0, 0, 0, 1, 1, 1, 1),
)
UUV_MATRIX = ((1, 1), (0, 1))

# Trial t of a run uses PCG64(channel seed + t); spacing the channel seeds of
# consecutive benchmark seeds this far apart keeps their word streams disjoint.
SEED_STRIDE = 1 << 32


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    construction: str
    error_rate: float
    erasure_rate: float
    mode: str
    carry_over: bool
    count_words: int  # words in the field-operation counting pass
    rss_words: int  # peak_rss_mb is read when this word is decoded

    def describe(self) -> dict:
        return {
            "construction": self.construction,
            "error_rate": self.error_rate,
            "erasure_rate": self.erasure_rate,
            "mode": self.mode,
            "carry_over": self.carry_over,
            "threads": 1,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mpc-uuv-gf8",
            why="only workload through gcc/mpc multistage decoding, exhaustive"
            " subcode tables and small RS outers; no change expected from RS"
            " or large-field work",
            construction="(u | u+v) over GF(8), outers RS(7,5) and RS(7,1)",
            error_rate=0.08,
            erasure_rate=0.0,
            mode="upto",
            carry_over=False,
            count_words=300,
            rss_words=2000,
        ),
        Workload(
            name="cc-hamming-erasures",
            why="erased rows take oracle_sigma full scans and beyond mode runs"
            " every viable GMD trial; exercises erasure-aware row scoring",
            construction="RS(4,2)/GF(4) outer over Hamming [7,4,3]/GF(2) inner",
            error_rate=0.05,
            erasure_rate=0.02,
            mode="beyond",
            carry_over=False,
            count_words=300,
            rss_words=2000,
        ),
        Workload(
            name="cc-rs256-gf16",
            why="each GMD trial brings a fresh erasure set and rebuilds the RS"
            " interpolation basis over GF(256); the syndrome decoder and field"
            " kernel must move it",
            construction="RS(64,40)/GF(256) outer over RS(15,8)/GF(16) inner,"
            " GF(256) = extend_field(GF(16), 2)",
            error_rate=0.10,
            erasure_rate=0.0,
            mode="upto",
            carry_over=True,
            count_words=6,
            rss_words=50,
        ),
    )
}


def _spec(name: str):
    import gccodec as g

    if name == "mpc-uuv-gf8":
        gf8 = g.make_field(2, 3)
        return g.mpc_spec([g.rs_code(gf8, 7, 5), g.rs_code(gf8, 7, 1)], UUV_MATRIX, gf8)
    if name == "cc-hamming-erasures":
        gf2 = g.make_field(2, 1)
        gf4 = g.extend_field(gf2, 2)
        return g.ConcatCode(g.rs_code(gf4, 4, 2), g.generic_code(gf2, HAMMING_7_4_3))
    if name == "cc-rs256-gf16":
        gf16 = g.make_field(2, 4)
        gf256 = g.extend_field(gf16, 2)
        return g.ConcatCode(g.rs_code(gf256, 64, 40), g.rs_code(gf16, 15, 8))
    raise KeyError(name)


def experiment_config(workload: Workload, seed: int):
    """The fixed ExperimentConfig of a workload; trial t is word t."""
    import gccodec as g

    channel = g.ChannelModel(
        error_rate=workload.error_rate,
        erasure_rate=workload.erasure_rate,
        seed=seed * SEED_STRIDE,
    )
    options = g.DecodeOptions(mode=workload.mode, carry_over=workload.carry_over)
    return g.ExperimentConfig(
        spec=_spec(workload.name),
        channel=channel,
        trials=1,
        options=options,
        threads=1,
    )
