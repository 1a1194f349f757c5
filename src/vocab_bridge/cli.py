"""Command line front-end.

Exit codes: 0 on success, 1 for usage errors, 2 for data or validation
errors.  Diagnostics go to stderr (level controlled by the VOCAB_BRIDGE_LOG
environment variable: error, warn, info or debug); data goes to stdout or to
the requested output files, never interleaved with diagnostics.  Every
subcommand is deterministic given its flags (plus --seed where offered).
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from collections import Counter

from . import alignment, expansion, mixture, oov, tokenizer
from .dictionary import BilingualDictionary, load_dictionary
from .embeddings import (
    _is_token,
    _open_text,
    _read_lines,
    _write_lines,
    load_embeddings,
    load_vocabulary,
    save_vocabulary,
    Vocabulary,
)
from .errors import MalformedLine, TokenNotFound, VocabBridgeError

log = logging.getLogger(f"{__package__}.cli")  # not __name__: under python -m that is __main__

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _UsageError(Exception):
    """A flag combination the parser grammar cannot express."""


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class _StderrHandler(logging.StreamHandler):
    """A stream handler whose stream is ``sys.stderr`` as it is at each record."""

    stream = property(lambda self: sys.stderr, lambda self, _: None)


_HANDLER = _StderrHandler()
_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _configure_logging() -> None:
    package = logging.getLogger(__package__)
    package.addHandler(_HANDLER)  # once: a handler already attached is not added again
    raw = os.environ.get("VOCAB_BRIDGE_LOG", "warn").lower()
    package.setLevel(_LOG_LEVELS.get(raw, logging.WARNING))
    if raw not in _LOG_LEVELS:
        log.warning("unknown VOCAB_BRIDGE_LOG value %r, using warn", raw)


def _read_tokens(path) -> list[str]:
    """The non-empty lines of a token file; a token holding whitespace is an error."""
    tokens = []
    for lineno, token in _read_lines(path):
        if _is_token(token):
            tokens.append(token)
        elif token:
            raise MalformedLine(f"token {token!r} contains whitespace", line=lineno)
    return tokens


def _audit_lines(records, source_lang: str, softmax: bool):
    """Yield retrieval audit TSV lines, sorted by source token then rank.

    ``records`` are ``csls_knn``'s ``(query, [(target, score), ...])``.
    Columns are source_lang, source, target, score; with ``softmax`` a fifth
    column holds the softmax of each query's displayed scores.
    """
    records = sorted(records)
    if softmax and records:  # every record holds ``top`` targets: one row each
        probs = mixture.mixture_weights([[s for _, s in e] for _, e in records]).tolist()
    for i, (query, entries) in enumerate(records):
        for rank, (target, score) in enumerate(entries):
            line = f"{source_lang}\t{query}\t{target}\t{score:.6f}"
            if softmax:
                line += f"\t{probs[i][rank]:.6f}"
            yield line


def _non_negative(text: str) -> int:
    """argparse type of a count or seed flag: a negative value is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _positive(text: str) -> int:
    """argparse type of a size or depth flag: a value below 1 is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _cap_pairs(dictionary: BilingualDictionary, max_pairs: int | None) -> BilingualDictionary:
    if max_pairs is None or len(dictionary) <= max_pairs:
        return dictionary
    return BilingualDictionary(dictionary.pairs[:max_pairs], dictionary.dedup_count)


def _cmd_bpe_train(args) -> int:
    counts: Counter = Counter()
    with _open_text(args.corpus) as fh:
        for line in fh:
            counts.update(line.split())
    model = tokenizer.bpe_train(counts, args.vocab_size)
    tokenizer.save_bpe_model(model, args.out)
    if args.vocab_out:
        save_vocabulary(Vocabulary(model.wordpiece_vocab), args.vocab_out)
    log.info(
        "trained %d merges, %d vocabulary entries", len(model.merges), len(model.wordpiece_vocab)
    )
    return 0


def _cmd_bpe_apply(args) -> int:
    model = tokenizer.load_bpe_model(args.merges)
    rendered: dict[str, str] = {}  # word -> its pieces joined by spaces
    out_lines = []
    with _open_text(args.input) as fh:
        for line in fh:
            words = line.split()
            for word in words:
                if word not in rendered:
                    pieces = tokenizer.bpe_apply(model, word)
                    if args.wordpiece_style:
                        pieces = tokenizer.wordpiece_style(pieces)
                    rendered[word] = " ".join(pieces)
            out_lines.append(" ".join([rendered[word] for word in words]))
    # an empty --output or --out writes to stdout too
    _write_lines(args.output or None, out_lines)
    return 0


def _cmd_wordpiece(args) -> int:
    vocab = load_vocabulary(args.vocab)
    rendered: dict[str, str] = {}  # word -> its output line
    out_lines = []
    with _open_text(args.input) as fh:
        for seg in tokenizer.classify_corpus(vocab, args.unk, fh, args.max_chars):
            if seg.word not in rendered:
                rendered[seg.word] = f"{seg.word}\t{seg.status.value}\t{' '.join(seg.pieces)}"
            out_lines.append(rendered[seg.word])
    _write_lines(args.output or None, out_lines)
    return 0


def _cmd_align_fit_independent(args) -> int:
    src = load_embeddings(args.src_emb)
    model_emb = load_embeddings(args.bert_emb)
    fit = alignment.fit_independent_mapping(src, model_emb)
    alignment.save_map(fit.map, args.out)
    print(f"pairs\t{fit.pair_count}")
    print(f"mean_residual\t{fit.mean_residual:.6f}")
    return 0


def _cmd_align_fit_joint(args) -> int:
    src = load_embeddings(args.src_emb)
    english = load_embeddings(args.en_emb)
    model_emb = load_embeddings(args.bert_emb)
    model_vocab = load_vocabulary(args.bert_vocab) if args.bert_vocab else model_emb.vocab
    dictionary = _cap_pairs(load_dictionary(args.dict), args.max_pairs)
    to_english, to_model = alignment.fit_joint_mapping(
        src, english, model_emb, dictionary, model_vocab
    )
    alignment.save_map(to_english.map, args.out_b)
    alignment.save_map(to_model.map, args.out_a)
    for stage, fit in enumerate((to_english, to_model), start=1):
        print(f"stage{stage}_pairs\t{fit.pair_count}")
        print(f"stage{stage}_residual\t{fit.mean_residual:.6f}")
    return 0


def _cmd_align_eval(args) -> int:
    src = load_embeddings(args.src_emb)
    tgt = load_embeddings(args.tgt_emb)
    linear_map = alignment.load_map(args.map)
    dictionary = _cap_pairs(load_dictionary(args.dict), args.max_pairs)
    precision, score = alignment.evaluate_map(
        linear_map, src, tgt, dictionary,
        csls_k=args.csls_k, eval_k=args.eval_k, sample=args.sample,
    )
    print(f"precision_at_{args.eval_k}\t{precision:.6f}")
    print(f"unsupervised_score\t{score:.6f}")
    for name, value, floor in (
        ("precision", precision, args.warn_below_precision),
        ("unsupervised score", score, args.warn_below_unsupervised),
    ):
        if floor is not None and value < floor:
            log.warning("%s %.4f below threshold %.4f; mapping quality is suspect",
                        name, value, floor)
    return 0


def _cmd_csls_nn(args) -> int:
    queries = load_embeddings(args.queries)
    wanted = _read_tokens(args.tokens) if args.tokens else []
    for tok in wanted:
        if tok not in queries.vocab:
            raise TokenNotFound(tok)
    targets = load_embeddings(args.targets)
    if args.map:
        queries = alignment.apply_map(alignment.load_map(args.map), queries)
    top = min(args.top, len(targets))
    records = alignment.csls_knn(queries, targets, top, csls_k=args.csls_k)
    if args.tokens:
        # scores stay relative to the full query set; the token list only
        # restricts which queries are reported
        keep = set(wanted)
        records = [record for record in records if record[0] in keep]
    _write_lines(args.out or None, _audit_lines(records, args.source_lang, args.softmax))
    return 0


def _cmd_mixture_build(args) -> int:
    src = load_embeddings(args.src_emb)
    english = load_embeddings(args.en_emb)
    model_emb = load_embeddings(args.bert_emb)
    model_vocab = load_vocabulary(args.bert_vocab) if args.bert_vocab else model_emb.vocab
    to_english = alignment.load_map(args.b_map)
    if args.tokens:
        new_tokens = _read_tokens(args.tokens)
    else:
        new_tokens = expansion.select_new_subwords(src.vocab, model_vocab)
    assignments = mixture.build_all_assignments(
        new_tokens, src, to_english, english, model_emb, model_vocab,
        csls_k=args.csls_k, top_m=args.top_m,
    )
    mixture.save_assignments(assignments, args.out)
    log.info("built %d mixture assignments", len(assignments))
    return 0


def _load_counts(path) -> dict[str, int]:
    counts: dict[str, int] = {}
    for lineno, line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not _is_token(parts[0]):
            raise MalformedLine(f"expected 'token<TAB>count', got {line!r}", line=lineno)
        if parts[0] in counts:
            raise MalformedLine(f"repeated token {parts[0]!r}", line=lineno)
        try:
            count = int(parts[1])
        except ValueError:
            raise MalformedLine(f"non-integer count in {line!r}", line=lineno) from None
        if count < 0:
            raise MalformedLine(f"negative count in {line!r}", line=lineno)
        counts[parts[0]] = count
    return counts


def _cmd_expand(args) -> int:
    if args.min_count is not None and not args.counts:
        raise _UsageError("--min-count requires --counts")
    if args.counts and args.min_count is None:
        raise _UsageError("--counts requires --min-count")
    if args.strategy == "mixture" and not args.assignments:
        raise _UsageError("--strategy mixture requires --assignments")
    if args.strategy == "joint" and not (args.src_emb and args.b_map and args.a_map):
        raise _UsageError("--strategy joint requires --src-emb, --b-map and --a-map")
    if args.strategy == "random" and args.seed is None:
        raise _UsageError("--strategy random requires --seed")
    model_emb = load_embeddings(args.bert_emb)
    model_vocab = load_vocabulary(args.bert_vocab) if args.bert_vocab else model_emb.vocab
    lang_vocab = load_vocabulary(args.lang_vocab)
    new_tokens = expansion.select_new_subwords(lang_vocab, model_vocab)
    if args.min_count is not None:
        counts = _load_counts(args.counts)
        new_tokens = [t for t in new_tokens if counts.get(t, 0) >= args.min_count]

    if args.strategy == "mixture":
        table = dict(mixture.load_assignments(args.assignments))
        new_rows, provenance = expansion.mixture_rows(new_tokens, table, model_emb)
    elif args.strategy == "joint":
        new_rows, provenance = expansion.joint_rows(
            new_tokens,
            load_embeddings(args.src_emb),
            alignment.load_map(args.b_map),
            alignment.load_map(args.a_map),
        )
    else:
        new_rows, provenance = expansion.random_rows(new_tokens, model_vocab, model_emb, args.seed)

    model = expansion.expand_vocabulary(model_vocab, model_emb, new_rows, provenance)
    expansion.emit_expanded(model, provenance, args.out_dir)
    log.info("expanded %d -> %d tokens", len(model_vocab), len(model.vocab))
    return 0


def _cmd_oov_stats(args) -> int:
    vocab = load_vocabulary(args.vocab)
    with _open_text(args.corpus) as fh:
        report = oov.corpus_oov_stats(vocab, fh, top_n=args.top, count_types=args.types)
    if args.json:
        text = oov.report_json(report)
    elif args.tsv:
        text = oov.report_tsv_line(report)
    else:
        text = oov.report_human_block(report)
    _write_lines(args.out or None, text.split("\n"))
    return 0


def _read_report(path) -> oov.OovReport:
    """Parse an ``oov-stats --tsv`` report, which is one line; an empty file fails at line 1."""
    lines = _read_lines(path)
    report = oov.parse_report_tsv(next(lines, (1, ""))[1])
    for lineno, _ in lines:
        raise MalformedLine("a report is one line", line=lineno)
    return report


def _cmd_compare_oov(args) -> int:
    delta = oov.compare_reports(_read_report(args.before), _read_report(args.after))
    if args.json:
        lines = [oov.delta_json(delta)]
    else:
        lines = [
            f"total_words\t{delta.total_words}",
            f"word_oov_delta\t{delta.word_oov_delta}",
            f"subword_oov_delta\t{delta.subword_oov_delta}",
            f"word_oov_rate_delta\t{delta.word_oov_rate_delta:+.6f}",
            f"subword_oov_rate_delta\t{delta.subword_oov_rate_delta:+.6f}",
            f"any_rate_increase\t{str(delta.any_rate_increase).lower()}",
        ]
        if delta.any_rate_increase:
            log.warning("OOV rate increased; the second vocabulary may not contain the first")
    _write_lines(None, lines)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command line grammar, built on first use and shared by every
    ``dispatch`` call in the process; callers must not change it."""
    parser = _Parser(prog="vocab-bridge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("bpe-train", help="learn BPE merges from a corpus")
    p.add_argument("--corpus", required=True, help="whitespace-tokenized text file")
    p.add_argument("--vocab-size", type=_positive, default=50000, help="symbol inventory target")
    p.add_argument("--out", required=True, help="merges file to write")
    p.add_argument("--vocab-out", help="also write the emitted subword vocabulary")
    p.set_defaults(func=_cmd_bpe_train)

    p = sub.add_parser("bpe-apply", help="segment a corpus with learned merges")
    p.add_argument("--merges", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="default: stdout")
    p.add_argument("--wordpiece-style", action="store_true",
                   help="render continuation pieces with the ## prefix")
    p.set_defaults(func=_cmd_bpe_apply)

    p = sub.add_parser("wordpiece", help="segment and classify words against a vocabulary")
    p.add_argument("--vocab", required=True, help="one token per line")
    p.add_argument("--input", required=True)
    p.add_argument("--unk", default=tokenizer.DEFAULT_UNK)
    p.add_argument("--max-chars", type=_non_negative, default=tokenizer.DEFAULT_MAX_CHARS)
    p.add_argument("--output", help="default: stdout")
    p.set_defaults(func=_cmd_wordpiece)

    p = sub.add_parser("align-fit-independent",
                       help="fit one map from shared tokens straight into the model space")
    p.add_argument("--src-emb", required=True)
    p.add_argument("--bert-emb", required=True)
    p.add_argument("--out", required=True, help="map file to write")
    p.set_defaults(func=_cmd_align_fit_independent)

    p = sub.add_parser("align-fit-joint",
                       help="fit the two-stage maps via the English anchor space")
    p.add_argument("--src-emb", required=True)
    p.add_argument("--en-emb", required=True)
    p.add_argument("--bert-emb", required=True)
    p.add_argument("--bert-vocab", help="default: the model embedding's vocabulary")
    p.add_argument("--dict", required=True, help="source-to-English dictionary file")
    p.add_argument("--max-pairs", type=_non_negative,
                   help="cap on dictionary pairs (no default cap)")
    p.add_argument("--out-b", required=True, help="source-to-English map file")
    p.add_argument("--out-a", required=True, help="English-to-model map file")
    p.set_defaults(func=_cmd_align_fit_joint)

    p = sub.add_parser("align-eval", help="precision@k and unsupervised mapping quality")
    p.add_argument("--src-emb", required=True)
    p.add_argument("--tgt-emb", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--eval-k", type=_positive, default=1)
    p.add_argument("--csls-k", type=_positive, default=10)
    p.add_argument("--sample", type=_positive, default=10000,
                   help="rows scored by the unsupervised metric")
    p.add_argument("--max-pairs", type=_non_negative)
    p.add_argument("--warn-below-precision", type=float, default=None,
                   help="warn when precision falls below this (0.20 is a common filter)")
    p.add_argument("--warn-below-unsupervised", type=float, default=None,
                   help="warn when the unsupervised score falls below this (0.25 is common)")
    p.set_defaults(func=_cmd_align_eval)

    p = sub.add_parser("csls-nn", help="audit top CSLS neighbors as TSV")
    p.add_argument("--queries", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--map", help="apply this map to the queries first")
    p.add_argument("--tokens", help="restrict queries to the tokens in this file")
    p.add_argument("--top", type=_positive, default=5)
    p.add_argument("--csls-k", type=_positive, default=10)
    p.add_argument("--source-lang", default="src", help="label for the first column")
    p.add_argument("--softmax", action="store_true",
                   help="append a softmax probability column over each query's scores")
    p.add_argument("--out", help="default: stdout")
    p.set_defaults(func=_cmd_csls_nn)

    p = sub.add_parser("mixture-build", help="build mixture assignments for new tokens")
    p.add_argument("--src-emb", required=True)
    p.add_argument("--b-map", required=True, help="source-to-English map")
    p.add_argument("--en-emb", required=True)
    p.add_argument("--bert-emb", required=True)
    p.add_argument("--bert-vocab")
    p.add_argument("--tokens", help="default: every source token missing from the model vocabulary")
    p.add_argument("--top-m", type=_positive, default=5)
    p.add_argument("--csls-k", type=_positive, default=10)
    p.add_argument("--out", required=True, help="assignment TSV to write")
    p.set_defaults(func=_cmd_mixture_build)

    p = sub.add_parser("expand", help="splice new tokens into the model vocabulary")
    p.add_argument("--bert-emb", required=True)
    p.add_argument("--bert-vocab")
    p.add_argument("--lang-vocab", required=True, help="subword vocabulary to splice in")
    p.add_argument("--strategy", required=True, choices=("mixture", "joint", "random"))
    p.add_argument("--assignments", help="mixture assignment TSV (mixture strategy)")
    p.add_argument("--src-emb", help="source embeddings (joint strategy)")
    p.add_argument("--b-map", help="source-to-English map (joint strategy)")
    p.add_argument("--a-map", help="English-to-model map (joint strategy)")
    p.add_argument("--seed", type=_non_negative, help="donor sampling seed (random strategy)")
    p.add_argument("--min-count", type=_non_negative, default=None,
                   help="keep only new tokens with at least this corpus count (off by default)")
    p.add_argument("--counts", help="token<TAB>count table for --min-count")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("oov-stats", help="two-level OOV rates for a corpus")
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--top", type=_non_negative, default=oov.DEFAULT_TOP_N)
    p.add_argument("--types", action="store_true", help="type-level rates instead of occurrences")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="flat key/value JSON")
    fmt.add_argument("--tsv", action="store_true", help="single TSV line")
    p.add_argument("--out", help="default: stdout")
    p.set_defaults(func=_cmd_oov_stats)

    p = sub.add_parser("compare-oov", help="delta between two saved TSV reports")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare_oov)

    return parser


def dispatch(argv) -> int:
    """Run one command line; returns the process exit code.

    The parser is built once per process, on the first call, and reused;
    the ``vocab_bridge`` logger's level is set from VOCAB_BRIDGE_LOG on
    every call.  The root logger and its handlers are left as they are.
    """
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 1
    except VocabBridgeError as exc:
        sys.stderr.write(f"{parser.prog}: error: {type(exc).__name__}: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
