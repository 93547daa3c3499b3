"""Byte-pair encoding over integer unit sequences.

Training starts from a closed base alphabet and repeatedly merges the most
frequent adjacent unit pair into a fresh unit, one merge per round, until
the requested vocabulary size is reached or no pair occurs at least twice.
Occurrences are counted non-overlapping left-to-right (a run of m equal
units contributes floor(m/2) pairs) and never across utterance boundaries.
Frequency ties go to the lexicographically smallest (left, right) pair.
The trainer reads the corpus as one token stream with -1 around each
utterance, so no pair crosses a boundary; one pass counts its pairs and
indexes where each starts, and next and previous links join the tokens
that merges leave. A merge of (a, b) into u
visits only its pair's positions, in ascending order, skips stale ones, and
moves the counts in closed form, with L the token before a site and R the
token after it (nothing moves beside a boundary). For a != b, each site
takes (a, b) down by one; on its left (L, a) goes down and (L, u) up, but a
run of a that ends at the site, p long, loses (a, a) only when p is even,
and after a site of the same merge (a chain a b a b) (u, a) goes down and
(u, u) up only when the run of u before the site has odd length; on its
right (b, R) goes down and (u, R) up, but a run of b, q long, loses (b, b)
only when q is even. For a == b, a run of m >= 2 units a merges every other
pair from its start into m//2 units u, and one a stays when m is odd: (a, a)
goes down by m//2 and (u, u) up by (m//2)//2, (L, a) down and (L, u) up, and
(u, a) up when m is odd, else (a, R) down and (u, R) up. Each run is walked
once per merge, so training stays linear. Once a pair exists its count never
rises, so a lazy heap of counts finds each merge.

Encoding gives the lowest-rank rule of Sennrich et al. 2016: merge the
lowest-ranked adjacent pair (all its non-overlapping occurrences) until no
pair has a rank. That equals replaying the merges in rank order, the
training-time segmentation: merge r creates unit base+r, so no pair of rank
<= r can appear after it. The encoder runs it on a whole corpus at once, as
one int64 stream with a separator id before every utterance and after the
last, in blocks of whole utterances, and keeps beside the stream the rank of
every adjacent pair (site), looked up once per block with one ``searchsorted``.
Each round merges two kinds of site: each utterance's lowest-rank sites,
which is one step of the rule, and every sealed site. A site (a, b) of rank r
is sealed when no merge of rank below r has a as its right operand or b as its
left operand. Then no earlier merge can take either token, and a unit made
beside it pairs with it only at a rank above r, so the replay merges this site
at step r whatever happens around it; merging it now changes nothing else.
Picked sites overlap only in a run of one pair (a, a). The run takes every
other site from its start, as the replay does: all copies of a unit in an
utterance are made in one round, so none can join the run later. Merging every
site below both neighbours' ranks instead would be wrong: in ``0 0 44 48``,
merging (44, 48) can make a pair with 0 that outranks (0, 0). A round drops
each merged site's right token and its rank, and looks up again only the two
sites that now hold the new unit. Every utterance stays in the stream until a
round picks no site, so each round passes over its whole block (up to
``_BLOCK_TOKENS`` ids), n rounds for a unit made by a chain of n merges.
Decoding writes every merged unit of a corpus as its two operands, one round
per level of its deepest merge tree, so decode(encode(x)) == x.

Merges file: line 1 ``#abpe 1``, line 2 ``#base <N>``, then one merge per
line as ``left right`` unit ids in training order. Merge i defines unit
id N+i.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

import numpy as np

from .codec import REGION_SIZE
from .corpus import (Corpus, TokenSequence, _as_corpus, _blocks, _check_ids, _check_size,
                     _id_stream, _parse_id, _parse_ids, _read_records, _read_text, _save, _split)
from .errors import FormatError

MERGES_VERSION = 1
MAX_BASE_SIZE = REGION_SIZE  # a base unit must fit the codec's block

Pair = tuple[int, int]


def _check_base_size(base_size: int) -> int:
    size = _check_size(base_size, "base_size")
    if not 1 <= size <= MAX_BASE_SIZE:
        raise ValueError(f"base_size must be in [1, {MAX_BASE_SIZE}]")
    return size


def _count_pairs(seq: list[int], counts: dict[Pair, int]) -> defaultdict[Pair, list[int]]:
    """Accumulate non-overlapping left-to-right adjacent-pair counts of ``seq``, in which -1
    separates sequences and no pair holding it counts, and return where each pair starts."""
    where: defaultdict[Pair, list[int]] = defaultdict(list)
    last = None  # equal consecutive pairs lie in a run: count every other one
    for p, pair in enumerate(zip(seq, seq[1:])):
        if pair == last:
            last = None
        else:
            counts[pair] = counts.get(pair, 0) + 1
            last = pair
        where[pair].append(p)
    for pair in [pair for pair in where if -1 in pair]:
        del counts[pair], where[pair]  # a pair's first site is always counted
    return where


def _run_is_even(tok: list[int], link: list[int], p: int) -> bool:
    """Whether the run of ``tok[p]`` from ``p`` along ``link`` has even length."""
    t, even = tok[p], True
    while tok[p] == t:
        even = not even
        p = link[p]
    return even


class BpeModel:
    """An ordered merge list over a closed base alphabet.

    Unit ids below ``base_size`` are base units; merge i defines unit
    ``base_size + i`` from two earlier units. The model is immutable after
    construction.
    """

    def __init__(self, base_size: int, merges: list[Pair]):
        base_size = _check_base_size(base_size)
        ranks: dict[Pair, int] = {}
        for i, (a, b) in enumerate(merges):
            _check_ids([(a, b)], base_size + i,
                       "merge {index}: operand out of range for unit {limit}", i)
            if ranks.setdefault((a, b), i) != i:
                raise ValueError(f"merge {i}: duplicate pair ({a}, {b})")
        self.base_size = base_size
        self.merges: list[Pair] = list(ranks)
        # the decoder's and the encoder's tables; rank len(merges) means "no merge"
        none = len(self.merges)
        rank = np.arange(none)
        self._operands = np.array(self.merges, dtype=np.int64).reshape(-1, 2)  # by rank
        left, right = self._operands.T
        min_rank_as_right = np.full(self.vocab_size, none)
        min_rank_as_left = np.full(self.vocab_size, none)
        for operands, min_rank in ((right, min_rank_as_right), (left, min_rank_as_left)):
            units, first = np.unique(operands, return_index=True)  # first is the lowest rank
            min_rank[units] = first
        sealed = (min_rank_as_right[left] >= rank) & (min_rank_as_left[right] >= rank)
        self._sealed = np.append(sealed, False)  # by rank
        # pair (a, b) has code a * _width + b; the separator, vocab_size, makes
        # no code of a real pair. Each merge's code starts an interval of codes
        # that holds its rank and code + 1 one that holds none (empty when the
        # next code is code + 1), so a code's rank is
        # _rank_at[searchsorted(_bounds, code, "right")].
        self._width = self.vocab_size + 1
        codes = left * self._width + right
        order = np.argsort(codes)
        self._bounds = np.stack((codes[order], codes[order] + 1), axis=1).ravel()
        self._rank_at = np.full(2 * none + 1, none)
        self._rank_at[1::2] = order

    @property
    def vocab_size(self) -> int:
        return self.base_size + len(self.merges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BpeModel):
            return NotImplemented
        return self.base_size == other.base_size and self.merges == other.merges

    def __repr__(self) -> str:
        return f"BpeModel(base_size={self.base_size}, merges={len(self.merges)})"

    @classmethod
    def train(cls, corpus: Corpus, vocab_size: int) -> "BpeModel":
        """Learn merges until ``vocab_size`` units exist or pairs run out."""
        if not len(corpus):
            raise ValueError("cannot train on an empty corpus")
        base = corpus.vocab_size
        vocab_size = _check_size(vocab_size, "vocab_size")
        if vocab_size < base:
            raise ValueError(
                f"vocab_size {vocab_size} is below the base alphabet size {base}"
            )
        _check_base_size(base)
        # the corpus as one linked token list, -1 around each utterance, and an
        # index from each pair to the positions it starts at (or once started
        # at: an entry is checked when it is used). A merged site keeps its left
        # position and unlinks its right one, whose token becomes -1.
        tok = _id_stream(corpus.ids, corpus.offsets, [-1], [-1]).tolist()
        counts: dict[Pair, int] = {}
        where = _count_pairs(tok, counts)
        nxt = list(range(1, len(tok) + 1))
        prv = list(range(-1, len(tok) - 1))

        # lazy heap of pairs counted at least twice, by count then smallest pair;
        # an entry is stale once its count is no longer the pair's count
        heap = [(-n, pair) for pair, n in counts.items() if n >= 2]
        heapq.heapify(heap)
        merges: list[Pair] = []
        for new_id in range(base, vocab_size):
            while heap and -heap[0][0] != counts.get(heap[0][1], 0):
                heapq.heappop(heap)
            if not heap:
                break
            best = heap[0][1]
            a, b = best
            delta: defaultdict[Pair, int] = defaultdict(int)
            odd = False  # the run of new_id that ends at the last merged site has odd length
            for i in sorted(where.pop(best)):
                j = nxt[i]
                if tok[i] != a or tok[j] != b:
                    continue  # stale, or (a == b) inside a run an earlier site merged
                x = prv[i]
                left = tok[x]
                if left != -1:
                    where[left, new_id].append(x)
                if a == b:  # the first site of a run: merge every other pair from it
                    n = 0
                    while tok[i] == a and tok[j] == a:
                        y = nxt[j]
                        tok[i] = new_id
                        tok[j] = -1
                        nxt[i] = y
                        prv[y] = i
                        if n:
                            where[new_id, new_id].append(prv[i])
                        n += 1
                        i, j = y, nxt[y]
                    right = tok[i]  # the odd a, or the token after the run
                    i = prv[i]  # the last new unit
                    delta[best] -= n
                    delta[new_id, new_id] += n // 2
                    if left != -1:
                        delta[left, a] -= 1
                        delta[left, new_id] += 1
                    if right != -1:
                        delta[a, right] -= right != a  # the odd a keeps its pair
                        delta[new_id, right] += 1
                        where[new_id, right].append(i)
                    continue
                y = nxt[j]
                right = tok[y]
                delta[best] -= 1
                if left == new_id:  # a chain a b a b: the site before made left
                    delta[new_id, a] -= 1
                    delta[new_id, new_id] += odd
                    odd = not odd
                else:
                    odd = True
                    if left != -1:  # a run of a ending here, p long, holds p // 2 (a, a)
                        delta[left, a] -= 1 if left != a else _run_is_even(tok, prv, i)
                        delta[left, new_id] += 1
                if right != -1:
                    delta[b, right] -= 1 if right != b else _run_is_even(tok, nxt, j)
                    delta[new_id, right] += 1
                    where[new_id, right].append(i)
                tok[i] = new_id
                tok[j] = -1
                nxt[i] = y
                prv[y] = i
            for pair, d in delta.items():
                if d:
                    n = counts.pop(pair, 0) + d
                    if n:
                        counts[pair] = n
                    if n >= 2:
                        heapq.heappush(heap, (-n, pair))
            merges.append(best)
        return cls(base, merges)

    def encode(self, seq: TokenSequence) -> TokenSequence:
        """Encode one sequence of base ids: ``encode_corpus`` on a corpus of one."""
        return self.encode_corpus([seq]).utterances[0]

    def decode(self, seq: TokenSequence) -> TokenSequence:
        """Expand one sequence to base ids: ``decode_corpus`` on a corpus of one."""
        return self.decode_corpus([seq]).utterances[0]

    def encode_corpus(self, corpus: Corpus | list[TokenSequence]) -> Corpus:
        """Encode every utterance of a corpus, or of a list of sequences, of base ids.

        An id outside the base alphabet raises ``IdRangeError`` for the
        first bad id of the first utterance that holds one.
        """
        corpus = _as_corpus(corpus, self.base_size,
                            "id {id} at position {pos} is outside the base alphabet")
        t = np.concatenate([self._encode_block(*block) for block in _blocks(corpus)]
                           + [[self.vocab_size]])
        sep = t == self.vocab_size  # one before each utterance and one after the last
        at = sep.nonzero()[0]
        return Corpus._of(t[~sep], at - np.arange(len(at)), self.vocab_size)

    def _ranks(self, t: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The rank of the pair that starts at each position ``at`` of ``t``."""
        code = t[at] * self._width + t[at + 1]
        return self._rank_at[self._bounds.searchsorted(code, "right")]

    def _encode_block(self, ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Encode checked utterances of base ids in one stream, each after a separator, until a
        round picks no site; ``rank[p]`` is the rank of the site (pair) that starts at ``p``."""
        sep, none = self.vocab_size, len(self.merges)
        t = _id_stream(ids, offsets, [sep], [sep])
        rank = self._ranks(t, np.arange(len(t) - 1))
        while True:
            at = (t == sep).nonzero()[0]  # utterance i spans t[at[i]:at[i + 1]]
            lowest = np.minimum.reduceat(rank, at[:-1])
            lowest[lowest == none] = -1  # picks no site
            site = (self._sealed[rank] | (rank == lowest.repeat(at[1:] - at[:-1]))).nonzero()[0]
            if not len(site):
                return t[:-1]
            step = site[1:] - site[:-1]
            if np.count_nonzero(step == 1):
                # a run of one pair (a, a): take every other site from its start
                run_start = np.maximum.accumulate(np.where(np.append(True, step != 1), site, 0))
                site = site[(site - run_start) % 2 == 0]
            t[site] = self.base_size + rank[site]
            keep = np.ones(len(t), dtype=bool)
            keep[site + 1] = False
            t, rank = t[keep], rank[keep[:-1]]
            site -= np.arange(len(site))  # its new place: each earlier site dropped one token
            beside = np.concatenate((site - 1, site))  # the two sites that hold each new unit
            rank[beside] = self._ranks(t, beside)

    def decode_corpus(self, corpus: Corpus | list[TokenSequence]) -> Corpus:
        """Expand every utterance of a corpus, or of a list of sequences, to base ids; an id
        outside the vocabulary raises ``IdRangeError`` for the first bad id of the first
        utterance that holds one."""
        corpus = _as_corpus(corpus, self.vocab_size, "id {id} at position {pos} out of range")
        ids, offsets = corpus.ids, corpus.offsets
        while (merged := ids >= self.base_size).any():  # one round per level of merge tree
            width = 1 + merged
            start = np.append(0, width.cumsum())  # where each unit's expansion starts, and the end
            at = start[:-1][merged]
            ids, offsets = ids.repeat(width), start[offsets]
            ids[at[:, None] + [0, 1]] = self._operands[ids[at] - self.base_size]
        return Corpus._of(ids, offsets, self.base_size)

    def dumps(self) -> str:
        lines = [f"#abpe {MERGES_VERSION}", "#base %d" % self.base_size]
        lines.extend("%d %d" % pair for pair in self.merges)  # a bool writes as 0 or 1
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        _save(self.dumps(), path)

    @classmethod
    def load(cls, path: str) -> "BpeModel":
        lines = _read_text(path).split("\n")
        if len(lines) < 2 or not lines[0].startswith("#abpe"):
            raise FormatError(f"{path}: missing '#abpe' header")
        if _split(lines[0]) != ["#abpe", str(MERGES_VERSION)]:
            raise FormatError(f"{path}: unsupported merges version {lines[0]!r}")
        base_parts = _split(lines[1])
        if len(base_parts) != 2 or base_parts[0] != "#base":
            raise FormatError(f"{path}: missing '#base <N>' line")
        try:
            base = _parse_id(base_parts[1])
        except FormatError as exc:
            raise FormatError(f"{path}:2: {exc}") from None

        def parse(line: str) -> Pair:
            ids = _parse_ids(line)
            if len(ids) != 2:
                raise FormatError("expected 'left right'")
            return ids[0], ids[1]

        merges = _read_records(lines[2:], path, parse, start=3)
        try:
            return cls(base, merges)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
