"""Output checks of one pipeline pass, run outside the timed region.

Each check returns an error message, or ``None`` when the output holds.
They read only files, so they run in the benchmark's own process and not in
the one whose memory is measured.
"""

from __future__ import annotations

from pathlib import Path

MERGES_HEADER = "#version: vocab-bridge-1"
UNK = "[UNK]"
WEIGHT_SUM_TOL = 1e-5  # six-decimal weights, at most a handful per token


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _words(path: Path) -> list[list[str]]:
    return [line.split() for line in _lines(path)]


def _join_pieces(pieces: list[str]) -> str:
    return pieces[0] + "".join(p[2:] if p.startswith("##") else p for p in pieces[1:])


def _tsv_rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in _lines(path)]


def check_bpe_train(inp: Path, out: Path, expect: dict, stdout: str) -> str | None:
    merges = _lines(out / "lang.merges")
    if not merges or merges[0] != MERGES_HEADER:
        return "merges file lacks its version header"
    if len(merges) < 2:
        return "no merges were learned"
    if not _lines(out / "bpe_vocab.txt"):
        return "empty BPE vocabulary"
    return None


def check_bpe_apply(inp: Path, out: Path, expect: dict, stdout: str) -> str | None:
    source, segmented = _words(inp / "test.txt"), _words(out / "seg.txt")
    if len(source) != len(segmented):
        return f"{len(segmented)} output lines for {len(source)} input lines"
    for lineno, (words, pieces) in enumerate(zip(source, segmented), start=1):
        rebuilt: list[list[str]] = []
        for piece in pieces:
            if piece.startswith("##") and rebuilt:
                rebuilt[-1].append(piece)
            else:
                rebuilt.append([piece])
        if [_join_pieces(p) for p in rebuilt] != words:
            return f"line {lineno}: pieces do not re-join to the corpus words"
    return None


def check_wordpiece(inp: Path, out: Path, expect: dict, stdout: str) -> str | None:
    words = [w for line in _words(inp / "test.txt") for w in line]
    rows = _tsv_rows(out / "wp.tsv")
    if [r[0] for r in rows] != words:
        return "segmented words differ from the corpus words"
    for word, status, pieces in rows:
        if pieces != UNK and _join_pieces(pieces.split(" ")) != word:
            return f"pieces of {word!r} do not re-join to it"
        if (pieces == UNK) != (status == "SUBWORD_OOV"):
            return f"status {status} does not match pieces of {word!r}"
    return None


def parse_align_eval(stdout: str) -> dict[str, float]:
    fields = dict(line.split("\t") for line in stdout.splitlines() if "\t" in line)
    return {"precision_at_1": float(fields["precision_at_1"]),
            "unsupervised_score": float(fields["unsupervised_score"])}


def check_align_eval(inp: Path, out: Path, expect: dict, stdout: str) -> str | None:
    try:
        precision = parse_align_eval(stdout)["precision_at_1"]
    except (KeyError, ValueError):
        return f"unparseable align-eval output {stdout!r}"
    # a held-out pair scores exactly when it lists the planted twin
    if abs(precision - expect["eval_planted_share"]) > 0.02:
        return f"precision {precision} is not the planted share {expect['eval_planted_share']:.4f}"
    return None


def check_csls_nn(inp: Path, out: Path, expect: dict, stdout: str) -> str | None:
    top1: dict[str, str] = {}
    for row in _tsv_rows(out / "audit.tsv"):
        top1.setdefault(row[1], row[2])
    planted = expect["planted"]
    recovered = sum(1 for query, twin in planted.items() if top1.get(query) == twin)
    queries = len(_lines(inp / "lang_vocab.txt"))
    if len(top1) != queries:
        return f"{len(top1)} queries listed, expected {queries}"
    if recovered < 0.98 * len(planted):
        return f"top-1 recovers {recovered} of {len(planted)} planted twins"
    return None


def check_mixture_build(inp: Path, out: Path, expect: dict, stdout: str) -> str | None:
    model_vocab = set(_lines(inp / "model_vocab.txt"))
    english = [line.split(" ", 1)[0] for line in _lines(inp / "en.vec")[1:]]
    pool = {t for t in english if t in model_vocab}
    rows = _tsv_rows(out / "assignments.tsv")
    if len(rows) != expect["new_tokens"]:
        return f"{len(rows)} assignments for {expect['new_tokens']} new tokens"
    for token, anchors in rows:
        pairs = [a.rsplit(":", 1) for a in anchors.split(",")]
        if abs(sum(float(w) for _, w in pairs) - 1.0) > WEIGHT_SUM_TOL:
            return f"weights of {token!r} do not sum to 1"
        if any(a not in pool for a, _ in pairs):
            return f"an anchor of {token!r} is outside the English-model pool"
    return None


def check_expand(inp: Path, out: Path, expect: dict, stdout: str) -> str | None:
    model_vocab = _lines(inp / "model_vocab.txt")
    vocab = _lines(out / "expanded" / "vocab.txt")
    if vocab[: len(model_vocab)] != model_vocab:
        return "the model vocabulary is not an id-stable prefix"
    if len(vocab) != len(model_vocab) + expect["new_tokens"]:
        return f"{len(vocab) - len(model_vocab)} tokens appended, expected {expect['new_tokens']}"
    original = _lines(inp / "model.vec")[1:]
    expanded = _lines(out / "expanded" / "embeddings.vec")
    if expanded[1 : len(original) + 1] != original:
        return "original rows are not byte-identical to the input lines"
    if len(expanded) != len(vocab) + 1:
        return "row count differs from the vocabulary size"
    if len(_lines(out / "expanded" / "provenance.tsv")) != expect["new_tokens"]:
        return "provenance does not cover every new token"
    return None


def parse_oov_tsv(path: Path) -> dict[str, float]:
    total, word, subword, word_rate, subword_rate = _lines(path)[0].split("\t")
    return {"total_words": int(total), "word_oov": int(word), "subword_oov": int(subword),
            "word_oov_rate": float(word_rate), "subword_oov_rate": float(subword_rate)}


def check_oov_before(inp: Path, out: Path, expect: dict, stdout: str) -> str | None:
    if parse_oov_tsv(out / "before.tsv")["total_words"] != expect["test_words"]:
        return "word total differs from the corpus"
    return None


def check_oov_after(inp: Path, out: Path, expect: dict, stdout: str) -> str | None:
    report = parse_oov_tsv(out / "after.tsv")
    got = (report["total_words"], report["word_oov"], report["subword_oov"])
    want = (expect["test_words"], expect["word_oov_after"], expect["subword_oov_after"])
    if got != want:
        return f"(words, word OOV, subword OOV) = {got}, expected {want}"
    return None


def check_compare_oov(inp: Path, out: Path, expect: dict, stdout: str) -> str | None:
    fields = dict(line.split("\t") for line in stdout.splitlines() if "\t" in line)
    if fields.get("any_rate_increase") != "false":
        return f"any_rate_increase is {fields.get('any_rate_increase')!r}"
    return None


CHECKS = {
    "bpe-train": check_bpe_train,
    "bpe-apply": check_bpe_apply,
    "wordpiece": check_wordpiece,
    "align-eval": check_align_eval,
    "csls-nn": check_csls_nn,
    "mixture-build": check_mixture_build,
    "expand": check_expand,
    "oov-stats-before": check_oov_before,
    "oov-stats-after": check_oov_after,
    "compare-oov": check_compare_oov,
}


def run_checks(inp: Path, out: Path, expect: dict, stdouts: dict[str, str]) -> dict[str, str]:
    """Failed checks of the outputs now in ``out``: invocation id -> message.

    ``stdouts`` holds what each invocation printed, by invocation id.
    """
    failures = {}
    for inv, check in CHECKS.items():
        try:
            error = check(inp, out, expect, stdouts.get(inv, ""))
        except (OSError, ValueError, IndexError, KeyError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error:
            failures[inv] = error
    return failures
