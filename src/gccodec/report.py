"""Instrumented results returned by the layered decoders."""

from __future__ import annotations

from dataclasses import dataclass, field

SKIP_REUSED = "NotInSuT"
SKIP_EQ8 = "SkipCondEq8"
SKIP_T_NO_GAIN = "TNoGain"


@dataclass
class DecodeReport:
    """Decoded data plus counters, indexed by level (1-based levels at i-1).

    Layered decoders fill one entry per level: the plain concatenated decoder
    treats its k message columns as levels of a single round, the multistage
    decoders use one round per level.
    """

    codeword: tuple | None = None
    columns: list = field(default_factory=list)
    messages: list = field(default_factory=list)
    inner_invocations: list = field(default_factory=list)
    gmd_trials: list = field(default_factory=list)
    row_skips: list = field(default_factory=list)
    failed_levels: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed_levels and self.codeword is not None

    @property
    def total_inner(self) -> int:
        return sum(self.inner_invocations)

    @property
    def total_outer(self) -> int:
        return sum(self.gmd_trials)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "codeword": None if self.codeword is None else [list(r) for r in self.codeword],
            "columns": [None if c is None else list(c) for c in self.columns],
            "messages": [None if m is None else list(m) for m in self.messages],
            "inner_invocations": list(self.inner_invocations),
            # one outer decode per GMD trial; the key stays for recorded outputs
            "outer_invocations": list(self.gmd_trials),
            "gmd_trials": list(self.gmd_trials),
            "row_skips": [dict(s) for s in self.row_skips],
            "failed_levels": list(self.failed_levels),
        }
