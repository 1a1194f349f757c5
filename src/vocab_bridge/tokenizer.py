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
import heapq
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from .embeddings import CONTINUATION_PREFIX, Vocabulary, _atomic_text, _is_token, _open_text
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

    ``merges`` are (left, right) symbol pairs in learned order; earlier pairs
    have priority during application.  ``END_OF_WORD`` is fused onto a word's
    final character, so word-final symbols carry a ``"</w>"`` suffix
    internally; application output strips it.  ``wordpiece_vocab`` holds the
    subwords of the training loop's final segmentation of each training
    word, rendered in the WordPiece convention and ordered by descending
    frequency (ties by ascending token).
    """

    merges: tuple[tuple[str, str], ...]
    wordpiece_vocab: tuple[str, ...] = ()
    # merge -> rank, built once so application never rehashes the merge table
    _ranks: dict[tuple[str, str], int] = field(
        init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self):
        ranks = {pair: rank for rank, pair in enumerate(self.merges)}
        object.__setattr__(self, "_ranks", ranks)


def _symbolize(word: str) -> tuple[str, ...]:
    # "abc" -> ('a', 'b', 'c</w>'); single-char words become ('a</w>',)
    if not _is_token(word):
        raise ValidationError(f"invalid word {word!r}: empty or contains whitespace")
    return tuple(word[:-1]) + (word[-1] + END_OF_WORD,)


def _unmark(symbols: tuple[str, ...]) -> list[str]:
    # ('a', 'bc</w>') -> ['a', 'bc']
    return [*symbols[:-1], symbols[-1].removesuffix(END_OF_WORD)]


def _merge_pair(symbols: tuple[str, ...], left: str, right: str) -> tuple[str, ...]:
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
    hold the merged pair (Sennrich et al. 2016).

    Raises ``EmptyCorpus`` if the table has no word with positive frequency.
    """
    if target_vocab < 1:
        raise ValidationError(f"target_vocab must be positive, got {target_vocab}")
    words: list[tuple[str, ...]] = []
    freqs: list[int] = []
    for word, freq in corpus.items():
        if freq <= 0:
            continue
        words.append(_symbolize(word))
        freqs.append(freq)
    if not words:
        raise EmptyCorpus("no words with positive frequency")

    # symbol -> occurrences over the word types; only positive counts are kept
    symbols_seen: Counter = Counter()
    pair_counts: Counter = Counter()
    holders: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for i, symbols in enumerate(words):
        symbols_seen.update(symbols)
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += freqs[i]
            holders[pair].add(i)
    # (-count, pair) orders like the max count, smallest pair rule; an entry
    # whose count no longer matches pair_counts is stale and skipped
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while len(symbols_seen) < target_vocab:
        while heap and pair_counts[heap[0][1]] != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        left, right = pair = heapq.heappop(heap)[1]
        merges.append(pair)
        delta: Counter = Counter()
        merged_count = 0
        # a holder set may still list words that an earlier merge left
        # without the pair; merging changes nothing in those
        for i in holders.pop(pair):
            old = words[i]
            new = _merge_pair(old, left, right)
            if len(new) == len(old):
                continue
            words[i] = new
            merged_count += len(old) - len(new)
            freq = freqs[i]
            for p in zip(old, old[1:]):
                delta[p] -= freq
            for p in zip(new, new[1:]):
                delta[p] += freq
                holders[p].add(i)
        for p, change in delta.items():
            if change:
                count = pair_counts[p] + change
                if count:
                    pair_counts[p] = count
                    heapq.heappush(heap, (-count, p))
                else:
                    del pair_counts[p]
        symbols_seen[left + right] += merged_count
        for s in (left, right):
            symbols_seen[s] -= merged_count
            if not symbols_seen[s]:
                del symbols_seen[s]

    # the loop's final symbols are each training word's segmentation
    entry_counts: Counter = Counter()
    for symbols, freq in zip(words, freqs):
        for piece in wordpiece_style(_unmark(symbols)):
            entry_counts[piece] += freq
    entries = tuple(sorted(entry_counts, key=lambda t: (-entry_counts[t], t)))
    return BpeModel(merges=tuple(merges), wordpiece_vocab=entries)


def bpe_apply(model: BpeModel, word: str) -> list[str]:
    """Segment one word with the learned merges, in priority order.

    Always succeeds: with no applicable merge the word falls back to single
    characters.  The end-of-word marker is stripped from the output.
    """
    symbols = _symbolize(word)
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
    with _atomic_text(path) as fh:
        fh.write(MERGES_HEADER + "\n")
        for left, right in model.merges:
            fh.write(f"{left} {right}\n")


def load_bpe_model(path) -> BpeModel:
    """Read a merges file written by :func:`save_bpe_model`.

    The emitted vocabulary is not stored in the merges format; the loaded
    model carries only the merge table.
    """
    with _open_text(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != MERGES_HEADER:
        raise MalformedHeader(f"expected {MERGES_HEADER!r} header", line=1)
    merges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for offset, line in enumerate(lines[1:]):
        lineno = offset + 2
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


def classify_corpus(
    vocab: Vocabulary,
    unk: str,
    lines: Iterable[str],
    max_chars: int = DEFAULT_MAX_CHARS,
) -> Iterator[Segmentation]:
    """Yield one :class:`Segmentation` per whitespace-separated word.

    Each distinct word is segmented once; its repeats yield the same frozen
    object.
    """
    seen: dict[str, Segmentation] = {}
    for line in lines:
        for word in line.split():
            seg = seen.get(word)
            if seg is None:
                seg = seen[word] = wordpiece_segment(vocab, unk, word, max_chars)
            yield seg
