"""Multi-trial decoding with reliability weights (Forney's GMD scheme).

Coordinates carry reliability weights in [0, 1] kept as exact scaled
integers: a vector of numerators and one shared denominator.  The driver
derives a nested chain of erasure sets from the weight classes, runs the
code's error-and-erasure decoder along the chain, and accepts a candidate
through the weighted distance criterion, evaluated in exact integer
arithmetic so boundary cases cannot be corrupted by rounding.

Trial filtering implements the classic redundancy arguments: a trial whose
erasure set repeats the previous one is dropped, a trial is dropped when the
next set in the chain grows by exactly one coordinate and d minus the
current set size is even (both sets then decode identically), and sets of
size >= d are dropped because the decoder must fail on them.  With these
rules at most floor((d+1)/2) trials ever run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .block_codes import LinearCode, ee_decode
from .errors import ContractViolation, InvalidParams, LengthMismatch

MODE_UPTO = "upto"
MODE_BEYOND = "beyond"

SKIP_DUPLICATE = "duplicate"
SKIP_PARITY = "parity"
SKIP_SIZE = "size"
SKIP_CARRY = "carried"


@dataclass(frozen=True)
class ReliabilityVector:
    """Per-coordinate scaled weights w_i/denominator in [0, 1]: the weights
    and the denominator are ints (bool, float and numpy scalars are
    refused), so the Forney test is exact integer arithmetic."""

    weights: tuple
    denominator: int

    def __post_init__(self):
        dnm = self.denominator
        if type(dnm) is not int or dnm <= 0:
            raise InvalidParams(f"denominator must be a positive int, got {dnm!r}")
        if any(type(w) is not int or not 0 <= w <= dnm for w in self.weights):
            raise InvalidParams("weights must be ints in [0, denominator]")

    @property
    def n(self) -> int:
        return len(self.weights)

    def classes(self) -> tuple:
        """Distinct weight values present, ascending."""
        return tuple(sorted(set(self.weights)))


@dataclass(frozen=True)
class ErasureChain:
    """Nested erasure sets; sets[0] is empty and sets[-1] covers everything."""

    sets: tuple

    def __len__(self):
        return len(self.sets)


def _chain(weights, classes) -> ErasureChain:
    sets = [frozenset()]
    for a in classes:
        sets.append(frozenset(i for i, w in enumerate(weights) if w <= a))
    return ErasureChain(tuple(sets))


def erasure_chain(rel: ReliabilityVector) -> ErasureChain:
    """Chain E_j = {i : w_i <= a_j} over the weight classes present."""
    return _chain(rel.weights, rel.classes())


def chain_with_failure_class(rel: ReliabilityVector) -> ErasureChain:
    """Like erasure_chain, but the zero-weight class is always present.

    The first trial set is then exactly the zero-reliability coordinates,
    possibly empty.  Callers that skip the no-erasure trial (because their
    weighting scheme makes it redundant) rely on this set being first.
    """
    return _chain(rel.weights, sorted(set(rel.weights) | {0}))


def _skip_reason(sets, j: int, d: int, previous):
    """Why trial j of the chain sets cannot help, or None when it may.

    previous is the set whose repetition makes trial j a duplicate: the set
    before it in the chain, or the last set a decoder actually ran.
    """
    cur = sets[j]
    if cur == previous:
        return SKIP_DUPLICATE
    if len(cur) >= d:
        return SKIP_SIZE
    if j + 1 < len(sets) and (d - len(cur)) % 2 == 0 and len(sets[j + 1]) == len(cur) + 1:
        return SKIP_PARITY
    return None


def viable(j: int, chain: ErasureChain, d: int) -> bool:
    """Whether trial j (1 <= j < len(chain) - 1) can possibly be useful."""
    if not 1 <= j < len(chain.sets):
        raise InvalidParams(f"trial index {j} out of range")
    return _skip_reason(chain.sets, j, d, chain.sets[j - 1]) is None


def trial_bound(d: int) -> int:
    if d < 1:
        raise InvalidParams("distance must be >= 1")
    return (d + 1) // 2


def forney_lhs(candidate, word, rel: ReliabilityVector) -> int:
    """Weighted mismatch score, scaled by the denominator."""
    if not len(candidate) == len(word) == rel.n:
        raise LengthMismatch("candidate, word and weights must have equal length")
    dnm = rel.denominator
    total = 0
    for c, r, w in zip(candidate, word, rel.weights):
        total += (dnm + w) if c != r else (dnm - w)
    return total


def forney_check(candidate, word, rel: ReliabilityVector, d: int) -> bool:
    """Acceptance criterion: weighted mismatch strictly below d (scaled)."""
    return forney_lhs(candidate, word, rel) < d * rel.denominator


@dataclass
class GmdReport:
    codeword: tuple | None
    error: tuple | None
    trials: int
    accepted_index: int | None
    skips: list
    lhs: int | None

    @property
    def ok(self) -> bool:
        return self.codeword is not None


def gmd_decode(
    code: LinearCode,
    word,
    rel: ReliabilityVector,
    mode: str = MODE_UPTO,
    skip_zero_trial: bool = False,
    chain: ErasureChain | None = None,
    start: int = 0,
) -> GmdReport:
    """Decode word with the chain of erasure trials derived from rel.

    In "upto" mode the first candidate passing the acceptance criterion is
    returned.  In "beyond" mode every trial runs and the candidate with the
    smallest weighted mismatch wins (ties go to the earliest trial), even
    when no candidate passes the strict criterion.

    A caller may supply an explicit chain (its first set must be empty); the
    trial at index 0 is the no-erasure trial and is suppressed when
    skip_zero_trial is set.  start gives the first chain index to try, an
    int in [0, len(chain)), used to carry a successful trial index over to
    the next decode.
    """
    if mode not in (MODE_UPTO, MODE_BEYOND):
        raise InvalidParams(f"unknown mode {mode!r}")
    word = tuple(word)
    if len(word) != rel.n:
        raise LengthMismatch("word and reliability vector lengths differ")
    derived = chain is None
    if derived:
        chain = erasure_chain(rel)
    sets = chain.sets
    if sets[0]:
        raise InvalidParams("chain must begin with the empty set")
    if type(start) is not int or not 0 <= start < len(sets):
        raise InvalidParams(f"start must be a chain index in [0, {len(sets)}), got {start!r}")
    d = code.distance()

    skips = []
    trials = 0
    best = None  # (lhs, index, codeword, error)
    accepted = None
    last_run_set = None
    first = 1 if skip_zero_trial else 0
    for j in range(first, len(sets)):
        reason = SKIP_CARRY if j < start else _skip_reason(sets, j, d, last_run_set)
        if reason is not None:
            skips.append((j, reason))
            continue
        cur = last_run_set = sets[j]
        trials += 1
        outcome = ee_decode(code, word, cur)
        if not outcome.ok:
            continue
        lhs = forney_lhs(outcome.codeword, word, rel)
        if mode == MODE_UPTO:
            if lhs < d * rel.denominator:
                accepted = (lhs, j, outcome)
                break
        else:
            if best is None or lhs < best[0]:
                best = (lhs, j, outcome)
    if mode == MODE_BEYOND:
        accepted = best
    if derived and trials > trial_bound(d):
        raise ContractViolation(f"{trials} trials exceed the chain bound {trial_bound(d)}")
    if accepted is None:
        return GmdReport(None, None, trials, None, skips, None)
    lhs, j, outcome = accepted
    return GmdReport(outcome.codeword, outcome.error, trials, j, skips, lhs)
