"""Two-level OOV measurement over whitespace-tokenized corpora.

Word-level OOV counts every word occurrence that is not itself a vocabulary
token; subword-level OOV counts occurrences that cannot be segmented at all
and collapse to the unknown token.  Subword OOV is therefore always a subset
of word OOV.  Rates are occurrence-weighted by default; a type-level view
counts each distinct word once.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import asdict, dataclass

from .embeddings import Vocabulary
from .errors import CorpusMismatch, MalformedLine, ValidationError
from .tokenizer import DEFAULT_MAX_CHARS, DEFAULT_UNK, SegmentStatus, wordpiece_segment

DEFAULT_TOP_N = 50

_TSV_FIELDS = ("total_words", "word_oov", "subword_oov", "word_oov_rate", "subword_oov_rate")


@dataclass(frozen=True)
class OovReport:
    """Corpus OOV counts and rates.

    ``top_oov_tokens`` lists the most frequent word-level OOV words as
    (word, count), descending count with ties by ascending word.
    """

    total_words: int
    word_oov: int
    subword_oov: int
    word_oov_rate: float
    subword_oov_rate: float
    top_oov_tokens: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if not 0 <= self.subword_oov <= self.word_oov <= self.total_words:
            raise ValidationError(
                f"inconsistent counts: {self.subword_oov} subword, "
                f"{self.word_oov} word, {self.total_words} total"
            )


def _rate(count: int, total: int) -> float:
    return count / total if total else 0.0


def corpus_oov_stats(
    vocab: Vocabulary,
    lines: Iterable[str],
    *,
    top_n: int = DEFAULT_TOP_N,
    count_types: bool = False,
) -> OovReport:
    """Classify every distinct word of the corpus once and tally both OOV levels.

    ``count_types`` switches to the type-level view, where each distinct
    word contributes one count regardless of how often it occurs.  The top
    OOV list always ranks by occurrence frequency.  Words are segmented at
    ``DEFAULT_MAX_CHARS``, so a longer word is subword OOV.
    """
    occurrences = Counter(word for line in lines for word in line.split())
    statuses = {
        w: wordpiece_segment(vocab, DEFAULT_UNK, w, DEFAULT_MAX_CHARS).status for w in occurrences
    }
    counts = Counter({w: 1 for w in occurrences}) if count_types else occurrences
    total = sum(counts.values())
    word_oov = sum(c for w, c in counts.items() if statuses[w] is not SegmentStatus.IN_VOCAB)
    subword_oov = sum(c for w, c in counts.items() if statuses[w] is SegmentStatus.SUBWORD_OOV)
    oov_items = sorted(
        ((w, c) for w, c in occurrences.items() if statuses[w] is not SegmentStatus.IN_VOCAB),
        key=lambda item: (-item[1], item[0]),
    )
    return OovReport(
        total_words=total,
        word_oov=word_oov,
        subword_oov=subword_oov,
        word_oov_rate=_rate(word_oov, total),
        subword_oov_rate=_rate(subword_oov, total),
        top_oov_tokens=tuple(oov_items[:top_n]),
    )


@dataclass(frozen=True)
class OovDelta:
    """Differences between two reports over the same corpus (after - before).

    Negative deltas are improvements.  ``any_rate_increase`` flags a
    regression at either level, which should never happen when the second
    vocabulary contains the first.
    """

    total_words: int
    word_oov_delta: int
    subword_oov_delta: int
    word_oov_rate_delta: float
    subword_oov_rate_delta: float
    any_rate_increase: bool


def compare_reports(before: OovReport, after: OovReport) -> OovDelta:
    """Compare two reports; raises ``CorpusMismatch`` on differing totals."""
    if before.total_words != after.total_words:
        raise CorpusMismatch(
            f"reports cover different corpora: {before.total_words} vs {after.total_words} words"
        )
    return OovDelta(
        total_words=before.total_words,
        word_oov_delta=after.word_oov - before.word_oov,
        subword_oov_delta=after.subword_oov - before.subword_oov,
        word_oov_rate_delta=after.word_oov_rate - before.word_oov_rate,
        subword_oov_rate_delta=after.subword_oov_rate - before.subword_oov_rate,
        any_rate_increase=(
            after.word_oov_rate > before.word_oov_rate
            or after.subword_oov_rate > before.subword_oov_rate
        ),
    )


def report_tsv_line(report: OovReport) -> str:
    """The report as one TAB-separated line (counts, then rates)."""
    return "\t".join(
        [
            str(report.total_words),
            str(report.word_oov),
            str(report.subword_oov),
            repr(report.word_oov_rate),
            repr(report.subword_oov_rate),
        ]
    )


def parse_report_tsv(text: str) -> OovReport:
    """Inverse of :func:`report_tsv_line` (top tokens are not round-tripped).

    Each rate must equal its count / ``total_words`` (0.0 for no words).
    """
    parts = text.strip().split("\t")
    if len(parts) != len(_TSV_FIELDS):
        raise MalformedLine(f"expected {len(_TSV_FIELDS)} fields, got {len(parts)}", line=1)
    try:
        total, word_oov, subword_oov = map(int, parts[:3])
        rates = [float(p) for p in parts[3:]]
    except ValueError:
        raise MalformedLine(f"unparseable report line {text!r}", line=1) from None
    if rates != [_rate(word_oov, total), _rate(subword_oov, total)]:
        raise MalformedLine(f"rates in {text.strip()!r} do not equal count / total_words", line=1)
    return OovReport(total, word_oov, subword_oov, *rates)


def report_human_block(report: OovReport) -> str:
    lines = [
        f"total words:       {report.total_words}",
        f"word-level OOV:    {report.word_oov} ({report.word_oov_rate:.4%})",
        f"subword-level OOV: {report.subword_oov} ({report.subword_oov_rate:.4%})",
    ]
    if report.top_oov_tokens:
        lines.append("top OOV words:")
        for word, count in report.top_oov_tokens:
            lines.append(f"  {word}\t{count}")
    return "\n".join(lines)


def report_json(report: OovReport) -> str:
    """Flat key/value JSON object (no nested structures)."""
    return json.dumps({name: getattr(report, name) for name in _TSV_FIELDS})


def delta_json(delta: OovDelta) -> str:
    return json.dumps(asdict(delta))
