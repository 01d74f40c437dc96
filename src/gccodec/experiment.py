"""Channel experiments: encode random words, corrupt, decode, classify.

Every trial is classified against the construction's correction guarantee;
a trial that sits inside the guarantee region and still fails flips the
VIOLATION flag, which downstream tooling treats as a hard error.  Trials
use independent substreams (seed + trial index), so runs are reproducible
and records are emitted in trial order.

construction() is the one place that tells concatenated, generalized
concatenated and matrix-product specs apart; the harness and the CLI work
on the record it returns.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field as dfield
from typing import Callable, NamedTuple

from . import concat
from .channel import ChannelModel, apply_channel, trial_stream
from .concat import ConcatCode, DecodeOptions, cc_decode, correctable_cc
from .errors import ConfigError, DecodeFailure
from .gcc import GccSpec, correctable_gcc, designed_distance, gcc_decode_improved, gcc_encode
from .mpc import MpcSpec, mpc_decode, mpc_designed_distance

ERRORS_ONLY = "multistage decoding here is errors-only; erasures need a concatenated spec"


@dataclass
class ExperimentConfig:
    spec: object
    channel: ChannelModel
    trials: int
    options: DecodeOptions = dfield(default_factory=DecodeOptions)
    output: str | None = None
    threads: int | None = None  # trials run serially: only None and 1 are accepted

    def __post_init__(self):
        # read as specio reads its integers: any integer type but bool
        trials = self.trials
        if isinstance(trials, bool) or not hasattr(trials, "__index__") or operator.index(trials) < 1:
            raise ConfigError(f"trial count must be an integer >= 1, got {trials!r}")
        self.trials = operator.index(trials)
        if self.threads not in (None, 1):
            raise ConfigError(f"trials run serially; threads must be 1, got {self.threads!r}")

    def built(self) -> "Construction":
        """construction(self.spec), built on the first call and again only
        when spec has been replaced."""
        kept = self.__dict__.get("_built")
        if kept is None or kept[0] is not self.spec:
            kept = self._built = (self.spec, construction(self.spec))
        return kept[1]


@dataclass
class ExperimentStats:
    trials: int = 0
    successes: int = 0
    miscorrections: int = 0
    failures: int = 0
    weight_histogram: dict = dfield(default_factory=dict)
    in_region: int = 0
    in_region_failures: int = 0
    inner_total: int = 0
    inner_max: int = 0
    outer_total: int = 0
    outer_max: int = 0
    trials_total: int = 0
    trials_max: int = 0
    violation: bool = False

    @property
    def word_errors(self) -> int:
        return self.miscorrections + self.failures

    def to_json(self) -> dict:
        out = {
            "trials": self.trials,
            "successes": self.successes,
            "miscorrections": self.miscorrections,
            "failures": self.failures,
            "word_errors": self.word_errors,
            "weight_histogram": {str(k): v for k, v in sorted(self.weight_histogram.items())},
            "in_region": self.in_region,
            "in_region_failures": self.in_region_failures,
            "inner_mean": self.inner_total / self.trials if self.trials else 0.0,
            "inner_max": self.inner_max,
            "outer_mean": self.outer_total / self.trials if self.trials else 0.0,
            "outer_max": self.outer_max,
            "gmd_trials_mean": self.trials_total / self.trials if self.trials else 0.0,
            "gmd_trials_max": self.trials_max,
            "violation": self.violation,
        }
        return out


class Construction(NamedTuple):
    """What encoding, decoding and classifying a spec's M x N words needs.

    decoder(received, pattern, options) returns a DecodeReport or raises
    DecodeFailure; use decode(), which rejects erasures when the decoder is
    errors-only.  info() computes the code-info payload on demand.
    """

    encode: Callable
    decoder: Callable
    region: Callable
    outers: tuple
    field: object
    m: int
    n: int
    erasures: bool
    info: Callable

    def decode(self, received, pattern, options):
        if not self.erasures and pattern is not None and any(pattern):
            raise ConfigError(ERRORS_ONLY)
        return self.decoder(received, pattern, options)


def construction(spec) -> Construction:
    """The Construction record of a ConcatCode, GccSpec or MpcSpec.

    Decoders and predicates are looked up as module globals when called,
    so code that wraps them by name sees every call.
    """
    if isinstance(spec, ConcatCode):
        return Construction(
            encode=lambda msgs: concat.cc_encode(spec, msgs),
            decoder=lambda received, pattern, opts: cc_decode(spec, received, pattern, opts)[1],
            region=lambda errors, pattern: correctable_cc(errors, pattern, spec),
            outers=(spec.outer,) * spec.k,
            field=spec.inner.field,
            m=spec.m,
            n=spec.inner.n,
            erasures=True,
            info=lambda: {
                "n": spec.length,
                "k": spec.k * spec.outer.k,
                "d_star": spec.designed_distance(),
                "exact": False,
            },
        )
    if isinstance(spec, GccSpec):
        mpc = isinstance(spec, MpcSpec)

        def decoder(received, pattern, options):
            return (mpc_decode if mpc else gcc_decode_improved)(spec, received, options)

        def info():
            d_star, exact = mpc_designed_distance(spec) if mpc else (designed_distance(spec), False)
            k = sum(a.k for a in spec.outers)
            return {"n": spec.m * spec.n, "k": k, "d_star": d_star, "exact": exact}

        return Construction(
            encode=lambda msgs: gcc_encode(spec, msgs),
            decoder=decoder,
            region=lambda errors, pattern: correctable_gcc(errors, spec),
            outers=spec.outers,
            field=spec.field,
            m=spec.m,
            n=spec.n,
            erasures=False,
            info=info,
        )
    raise ConfigError(f"no construction for {type(spec).__name__}")


def run_trial(config: ExperimentConfig, trial: int) -> dict:
    c = config.built()
    stream = trial_stream(config.channel, trial)  # which checks the trial index
    # a lower bound on what the trial reads: one output per two message
    # symbols, one per channel symbol
    stream.reserve((sum(a.k for a in c.outers) + 1) // 2 + c.m * c.n)
    msgs = [tuple(stream.integers_many(0, a.field.q, a.k)) for a in c.outers]
    word = c.encode(msgs)
    received, pattern, errors = apply_channel(word, c.field, config.channel, rng=stream)
    weight = sum(len(row) - row.count(0) for row in errors)
    erased = sum(map(len, pattern))
    inside = c.region(errors, pattern)
    record = {
        "trial": operator.index(trial),
        "weight": weight,
        "erased": erased,
        "in_region": inside,
    }
    try:
        report = c.decode(received, pattern, config.options)
    except DecodeFailure as exc:
        record["outcome"] = "failure"
        if exc.report is not None:
            record["inner"] = exc.report.total_inner
            record["outer"] = exc.report.total_outer
            record["gmd_trials"] = max(exc.report.gmd_trials, default=0)
        return record
    record["outcome"] = "success" if report.codeword == word else "miscorrection"
    record["inner"] = report.total_inner
    record["outer"] = report.total_outer
    record["gmd_trials"] = max(report.gmd_trials, default=0)
    return record


def run_experiment(config: ExperimentConfig) -> ExperimentStats:
    if config.channel.erasure_rate > 0 and not config.built().erasures:
        raise ConfigError(ERRORS_ONLY)
    records = [run_trial(config, t) for t in range(config.trials)]

    stats = ExperimentStats()
    for rec in records:
        stats.trials += 1
        stats.weight_histogram[rec["weight"]] = stats.weight_histogram.get(rec["weight"], 0) + 1
        if rec["in_region"]:
            stats.in_region += 1
        if rec["outcome"] == "success":
            stats.successes += 1
        elif rec["outcome"] == "miscorrection":
            stats.miscorrections += 1
        else:
            stats.failures += 1
        if rec["in_region"] and rec["outcome"] != "success":
            stats.in_region_failures += 1
            stats.violation = True
        stats.inner_total += rec.get("inner", 0)
        stats.inner_max = max(stats.inner_max, rec.get("inner", 0))
        stats.outer_total += rec.get("outer", 0)
        stats.outer_max = max(stats.outer_max, rec.get("outer", 0))
        stats.trials_total += rec.get("gmd_trials", 0)
        stats.trials_max = max(stats.trials_max, rec.get("gmd_trials", 0))

    if config.output:
        with open(config.output, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"summary": stats.to_json()}) + "\n")
    return stats
