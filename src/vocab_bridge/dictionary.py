"""Bilingual dictionaries: parsing translation-pair files."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedLine


@dataclass(frozen=True)
class BilingualDictionary:
    """An ordered list of (source, target) translation pairs.

    A source may appear with several targets.  ``dedup_count`` records how
    many exact duplicate pairs were dropped during loading.
    """

    pairs: tuple[tuple[str, str], ...]
    dedup_count: int = 0

    def __len__(self) -> int:
        return len(self.pairs)

    def targets_by_source(self) -> dict[str, list[str]]:
        """Each source's targets, with sources in first-occurrence order."""
        out: dict[str, list[str]] = {}
        for src, tgt in self.pairs:
            out.setdefault(src, []).append(tgt)
        return out


def load_dictionary(path) -> BilingualDictionary:
    """Parse ``source<TAB>target`` or ``source target`` lines.

    The separator is auto-detected per line: a TAB wins if present, otherwise
    a single space.  Exact duplicate pairs keep the first occurrence and are
    counted.  A line that does not split into exactly two non-empty fields
    raises ``MalformedLine`` with its 1-based line number.
    """
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                raise MalformedLine("empty line", line=lineno)
            sep = "\t" if "\t" in line else " "
            parts = line.split(sep)
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise MalformedLine(
                    f"expected two {'TAB' if sep == chr(9) else 'space'}-separated fields, got {line!r}",
                    line=lineno,
                )
            pair = (parts[0], parts[1])
            if pair in seen:
                duplicates += 1
                continue
            seen.add(pair)
            pairs.append(pair)
    return BilingualDictionary(tuple(pairs), dedup_count=duplicates)
