"""Candidate selection by sequence-model score, and agreement with human ranks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpe import BpeModel
from .corpus import IdRangeError, TokenSequence, _check_size


@dataclass(frozen=True)
class CandidateSet:
    """Two or more tokenized candidates for one prompt, optionally ranked.

    ``human_ranks[i]`` is the rank of candidate i, a permutation of 1..n
    with 1 the most preferred.
    """

    candidates: list[TokenSequence]
    human_ranks: list[int] | None = None

    def __post_init__(self) -> None:
        n = len(self.candidates)
        if n < 2:
            raise ValueError(f"need at least 2 candidates, got {n}")
        for i, cand in enumerate(self.candidates):
            if len(cand) == 0:
                raise ValueError(f"candidate {i} is empty")
        if self.human_ranks is not None and sorted(self.human_ranks) != list(
            range(1, n + 1)
        ):
            raise ValueError(f"human_ranks must be a permutation of 1..{n}")


@dataclass(frozen=True)
class RescoreResult:
    scores: list[float]
    best_index: int

    @classmethod
    def from_scores(cls, scores: list[float]) -> "RescoreResult":
        """Argmax with ties broken toward the lowest index."""
        if len(scores) == 0:
            raise ValueError("no scores")
        return cls(list(scores), max(range(len(scores)), key=scores.__getitem__))


def rescore(
    model,
    candidates: CandidateSet,
    *,
    length_norm: bool = False,
    bpe: BpeModel | None = None,
) -> RescoreResult:
    """Score every candidate with ``model.logprobs`` and pick the argmax.

    When ``bpe`` is given, candidates are raw base-token sequences and are
    encoded together before scoring. ``length_norm`` divides each log score
    by the scored sequence length; the default keeps the raw sequence
    probability.
    """
    seqs = candidates.candidates
    try:
        if bpe is not None:
            seqs = bpe.encode_corpus(seqs)
        scores = model.logprobs(seqs)
    except IdRangeError as exc:
        raise ValueError(f"candidate {exc.index}: {exc}") from None
    if length_norm:
        lengths = np.diff(seqs.offsets).tolist() if bpe is not None else map(len, seqs)
        scores = [score / n for score, n in zip(scores, lengths)]
    return RescoreResult.from_scores(scores)


def topx_accuracy(
    results: list[RescoreResult], rank_sets: list[list[int]], x: int
) -> float:
    """Fraction of cases whose selected candidate is human-ranked <= x."""
    x = _check_size(x, "x", 1)
    if len(results) != len(rank_sets):
        raise ValueError(
            f"{len(results)} results vs {len(rank_sets)} rank sets"
        )
    if not results:
        raise ValueError("no rescore results")
    hits = 0
    for case, (result, ranks) in enumerate(zip(results, rank_sets)):
        n = len(ranks)
        if sorted(ranks) != list(range(1, n + 1)):
            raise ValueError(f"case {case}: ranks are not a permutation of 1..{n}")
        if x > n:
            raise ValueError(f"case {case}: x={x} outside 1..{n}")
        if not 0 <= result.best_index < n:
            raise ValueError(f"case {case}: best_index out of range")
        if ranks[result.best_index] <= x:
            hits += 1
    return hits / len(results)
