"""Subword tokenization: BPE merge learning and WordPiece segmentation.

Two tokenizers cooperate here.  A byte-pair-encoding (BPE) trainer learns a
merge table from a word-frequency corpus, fusing the fixed ``END_OF_WORD``
marker (``"</w>"``) onto each word's last character; its emitted vocabulary
is rendered in the WordPiece convention (word-internal pieces prefixed with
``embeddings.CONTINUATION_PREFIX``, ``"##"``) so that the pieces can later be
spliced into a pretrained model's vocabulary.  Both spellings are part of the
merges and vocabulary file formats, not options.  A WordPiece segmenter
applies such a vocabulary with greedy longest-match-first lookup and
classifies each word at two levels:

* word-level OOV: the word is not itself a vocabulary token;
* subword-level OOV: no segmentation into vocabulary pieces exists at all,
  so the word collapses to the unknown token.

Pre-tokenization is whitespace splitting only; words are never altered.
"""

from __future__ import annotations

import enum
import functools
import heapq
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

from .embeddings import CONTINUATION_PREFIX, Vocabulary, _is_token, _read_lines, _write_lines
from .errors import EmptyCorpus, MalformedHeader, MalformedLine, ValidationError

MERGES_HEADER = "#version: vocab-bridge-1"
DEFAULT_UNK = "[UNK]"
DEFAULT_MAX_CHARS = 100
# Fused onto a word's final symbol during training and application.
END_OF_WORD = "</w>"


class SegmentStatus(enum.Enum):
    IN_VOCAB = "IN_VOCAB"
    WORD_OOV_SUBWORD_OK = "WORD_OOV_SUBWORD_OK"
    SUBWORD_OOV = "SUBWORD_OOV"


@dataclass(frozen=True)
class Segmentation:
    """One word and its subword pieces.

    Unless the word fell back to the unknown token, concatenating the pieces
    (continuation prefixes removed) reproduces the word exactly.
    """

    word: str
    pieces: tuple[str, ...]
    status: SegmentStatus


@dataclass(frozen=True)
class BpeModel:
    """A learned BPE merge table.

    ``merges`` are distinct (left, right) symbol pairs in learned order;
    earlier pairs have priority during application.  ``END_OF_WORD`` is
    fused onto a word's final character, so word-final symbols carry a
    ``"</w>"`` suffix internally; application output strips it.
    ``wordpiece_vocab`` holds the subwords of each training word's
    segmentation (the training loop's final symbols, or :func:`bpe_apply`'s
    pieces for a word whose text holds ``END_OF_WORD``), rendered in the
    WordPiece convention and ordered by descending frequency (ties by
    ascending token).
    """

    merges: tuple[tuple[str, str], ...]
    wordpiece_vocab: tuple[str, ...] = ()

    @functools.cached_property
    def _ranks(self) -> dict[tuple[str, str], int]:
        # merge -> rank, built once so application never rehashes the merge table
        return {pair: rank for rank, pair in enumerate(self.merges)}


def _symbolize(word: str) -> list[str]:
    # "abc" -> ['a', 'b', 'c</w>']; single-char words become ['a</w>']
    if not _is_token(word):
        raise ValidationError(f"invalid word {word!r}: empty or contains whitespace")
    return [*word[:-1], word[-1] + END_OF_WORD]


def _unmark(symbols: Sequence[str]) -> list[str]:
    # ('a', 'bc</w>') -> ['a', 'bc']
    return [*symbols[:-1], symbols[-1].removesuffix(END_OF_WORD)]


def _merge_pair(symbols: Sequence[str], left: str, right: str) -> tuple[str, ...]:
    """Merge non-overlapping (left, right) occurrences, left to right."""
    merged = left + right
    out: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def bpe_train(corpus: Mapping[str, int], target_vocab: int) -> BpeModel:
    """Learn BPE merges from a word-frequency table.

    Repeatedly merges the most frequent adjacent symbol pair, breaking ties
    by the lexicographically smallest (left, right) pair, until the number of
    distinct symbols reaches ``target_vocab`` or no pair occurs at least
    twice.  Identical inputs always produce identical models.

    Pair counts are built once; each merge then updates only the words that
    hold the merged pair, and in each such word only the changed span: the
    pairs from the one before its first merge site to the one after its
    last (Sennrich et al. 2016).  A pair is learned at most once, so the
    merges file always loads.  The emitted vocabulary is counted per
    distinct final symbol in two position classes, a word's first symbol
    and the rest, so each symbol is rendered once.  A word whose text holds
    ``END_OF_WORD`` is segmented by :func:`bpe_apply` instead: one of its
    later symbols can spell a marked one, which application merges again.

    Raises ``EmptyCorpus`` if the table has no word with positive frequency.
    """
    if target_vocab < 1:
        raise ValidationError(f"target_vocab must be positive, got {target_vocab}")
    texts: list[str] = []
    words: list[list[str]] = []
    freqs: list[int] = []
    for word, freq in corpus.items():
        if freq <= 0:
            continue
        texts.append(word)
        words.append(_symbolize(word))
        freqs.append(freq)
    if not words:
        raise EmptyCorpus("no words with positive frequency")

    # symbol -> occurrences over the word types; only positive counts are kept
    symbols_seen = Counter(chain.from_iterable(words))
    # pair -> the word of each occurrence; a word is listed once per occurrence
    occ: dict[tuple[str, str], list[int]] = {}
    for i, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            occ.setdefault(pair, []).append(i)
    get_freq = freqs.__getitem__
    pair_counts = {pair: sum(map(get_freq, idx)) for pair, idx in occ.items()}
    # pair -> the words that hold it, and perhaps some that no longer do
    holders = {pair: set(idx) for pair, idx in occ.items()}
    del occ
    # (-count, pair) orders like the max count, smallest pair rule; an entry
    # whose count no longer matches pair_counts is stale and skipped
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    # learned pairs in order; "</w>" text inside a word can bring a merged
    # pair back, and such a pair is dropped like a stale entry
    merges: dict[tuple[str, str], None] = {}
    while len(symbols_seen) < target_vocab:
        while heap and (pair_counts.get(heap[0][1]) != -heap[0][0] or heap[0][1] in merges):
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        left, right = pair = heapq.heappop(heap)[1]
        merges[pair] = None
        merged = left + right
        delta: dict[tuple[str, str], int] = {}
        merged_count = 0
        for i in holders.pop(pair):
            # merge non-overlapping sites left to right, noting the first
            # and the last; a stale holder has none and stays as it is
            old = words[i]
            end = len(old) - 1
            new: list[str] = []
            first = last = -1
            j = 0
            while j < end:
                if old[j] == left and old[j + 1] == right:
                    if first < 0:
                        first = j
                    last = j
                    new.append(merged)
                    j += 2
                else:
                    new.append(old[j])
                    j += 1
            if first < 0:
                continue
            if j == end:
                new.append(old[end])
            words[i] = new
            sites = len(old) - len(new)
            merged_count += sites
            freq = freqs[i]
            # only the pairs from the one before the first site to the one
            # after the last change; the rest of the word keeps its pairs
            lo = first - 1 if first else 0
            span = old[lo:last + 3]
            for p in zip(span, span[1:]):
                delta[p] = delta.get(p, 0) - freq
            span = new[lo:last + 3 - sites]
            for p in zip(span, span[1:]):
                delta[p] = delta.get(p, 0) + freq
                held = holders.get(p)
                if held is None:
                    holders[p] = {i}
                else:
                    held.add(i)
        for p, change in delta.items():
            if change:
                count = pair_counts.get(p, 0) + change
                if count:
                    pair_counts[p] = count
                    heapq.heappush(heap, (-count, p))
                else:
                    del pair_counts[p]
        symbols_seen[merged] += merged_count
        for s in (left, right):
            symbols_seen[s] -= merged_count
            if not symbols_seen[s]:
                del symbols_seen[s]

    # a word's segmentation is the loop's final symbols, of which only the
    # last ends in the marker, unless its text holds the marker: then a
    # later symbol may spell a marked one that bpe_apply merges again, so
    # bpe_apply segments it.  Symbols are counted as first or later, so
    # each distinct one is rendered once.
    model = BpeModel(merges=tuple(merges))
    entry_counts: Counter = Counter()
    first: dict[str, int] = {}
    rest: dict[str, int] = {}
    for word, symbols, freq in zip(texts, words, freqs):
        if END_OF_WORD in word:
            for piece in wordpiece_style(bpe_apply(model, word)):
                entry_counts[piece] += freq
            continue
        s = symbols[0]
        first[s] = first.get(s, 0) + freq
        for s in symbols[1:]:
            rest[s] = rest.get(s, 0) + freq
    for s, count in first.items():
        entry_counts[s.removesuffix(END_OF_WORD)] += count
    for s, count in rest.items():
        entry_counts[CONTINUATION_PREFIX + s.removesuffix(END_OF_WORD)] += count
    entries = tuple(sorted(entry_counts, key=lambda t: (-entry_counts[t], t)))
    return BpeModel(merges=model.merges, wordpiece_vocab=entries)


def bpe_apply(model: BpeModel, word: str) -> list[str]:
    """Segment one word with the learned merges, in priority order.

    Always succeeds: with no applicable merge the word falls back to single
    characters.  The end-of-word marker is stripped from the output.
    """
    symbols: Sequence[str] = _symbolize(word)
    ranks = model._ranks
    while len(symbols) > 1:
        best: tuple[str, str] | None = None
        best_rank = len(model.merges)
        for pair in zip(symbols, symbols[1:]):
            rank = ranks.get(pair, -1)
            if rank >= 0 and rank < best_rank:
                best_rank = rank
                best = pair
        if best is None:
            break
        symbols = _merge_pair(symbols, *best)
    return _unmark(symbols)


def wordpiece_style(pieces: list[str]) -> list[str]:
    """Render a piece sequence in the WordPiece convention."""
    return [pieces[0]] + [CONTINUATION_PREFIX + p for p in pieces[1:]]


def save_bpe_model(model: BpeModel, path) -> None:
    """Write merges as ``left right`` lines under a version header."""
    _write_lines(path, [MERGES_HEADER, *(f"{left} {right}" for left, right in model.merges)])


def load_bpe_model(path) -> BpeModel:
    """Read a merges file written by :func:`save_bpe_model`.

    The header is checked on line 1 before the merges are read, one line at
    a time.  The emitted vocabulary is not stored in the merges format; the
    loaded model carries only the merge table.
    """
    lines = _read_lines(path)
    if next(lines, (1, None))[1] != MERGES_HEADER:
        raise MalformedHeader(f"expected {MERGES_HEADER!r} header", line=1)
    merges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in lines:
        parts = line.split(" ")
        if len(parts) != 2 or not all(map(_is_token, parts)):
            raise MalformedLine(f"expected 'left right', got {line!r}", line=lineno)
        pair = (parts[0], parts[1])
        if pair in seen:
            raise MalformedLine(f"duplicate merge pair {pair!r}", line=lineno)
        seen.add(pair)
        merges.append(pair)
    return BpeModel(merges=tuple(merges))


def wordpiece_segment(
    vocab: Vocabulary,
    unk: str,
    word: str,
    max_chars: int = DEFAULT_MAX_CHARS,
) -> Segmentation:
    """Segment one word by greedy longest-match-first vocabulary lookup.

    The first piece is matched bare; subsequent pieces are matched with
    ``CONTINUATION_PREFIX``.  Words longer than ``max_chars`` or
    with no complete segmentation collapse to ``(unk,)`` with status
    ``SUBWORD_OOV``.
    """
    if not _is_token(word):
        raise ValidationError(f"invalid word {word!r}: empty or contains whitespace")
    if len(word) > max_chars:
        return Segmentation(word, (unk,), SegmentStatus.SUBWORD_OOV)
    index = vocab.index  # the dict itself: no ``__contains__`` call per probe
    pieces: list[str] = []
    prefix = ""  # the first piece is bare, every later one continues
    start = 0
    n = len(word)
    while start < n:
        end = n
        while start < end:
            piece = prefix + word[start:end]
            if piece in index:
                break
            end -= 1
        else:
            return Segmentation(word, (unk,), SegmentStatus.SUBWORD_OOV)
        pieces.append(piece)
        prefix = CONTINUATION_PREFIX
        start = end
    if len(pieces) == 1 and pieces[0] == word:
        status = SegmentStatus.IN_VOCAB
    else:
        status = SegmentStatus.WORD_OOV_SUBWORD_OK
    return Segmentation(word, tuple(pieces), status)
