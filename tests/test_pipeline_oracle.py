"""The CLI chain end to end, each output rebuilt by the references in ``oracles``.

One run of ``bpe-train -> bpe-apply -> wordpiece -> align-fit-joint ->
align-eval -> csls-nn -> mixture-build -> expand -> oov-stats (twice) ->
compare-oov`` through ``cli.dispatch`` on tiny planted inputs.  Every output
is rebuilt from the files it was made from with ``tests/oracles.py`` and
plain numpy, never with the package's own code paths, so a fault in how one
stage hands its data to the next fails here even when every stage passes its
own tests.

Outputs are compared byte for byte.  The two fitted maps and the fit
residuals are the exception: the planted data fixes them only up to
rounding, so they are compared with the planted maps within ``MAP_TOL``.
"""

from collections import Counter

import numpy as np

from conftest import planted_chain, tok_list
from oracles import (
    bpe_apply_reference,
    bpe_train_reference,
    csls_topk_reference,
    evaluate_map_reference,
    format_matrix,
    mixture_embedding_reference,
    mixture_weights_reference,
    read_matrix_reference,
    wordpiece_segment_reference,
)
from vocab_bridge import BilingualDictionary, EmbeddingMatrix, LinearMap, Vocabulary
from vocab_bridge.cli import dispatch

# Largest entrywise distance of a fitted map from its planted map, and
# largest fit residual.
MAP_TOL = 1e-6
TRAIN_COUNTS = {"low": 7, "lower": 5, "lowest": 3, "newer": 6, "wider": 4, "new": 2,
                "ça": 2, "après": 3}
# a blank line, a tab, repeated and unseen words, an unseen character ("x")
TEST_TEXT = "lower newest ça low\n\nwider  xyz lowest\tlow xyz\nnewer après wide\n"
VOCAB_SIZE = 20
MAX_CHARS = 100  # the segmenters' default
UNK = "[UNK]"
N, D_SRC, D_MODEL = 40, 8, 12
POOL = 30  # English tokens that are also model tokens
NOISY = 6  # last source rows: perturbed and left out of the training dictionary
CSLS_K, TOP = 4, 3


def _unit(rows):
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _anchors(weights) -> str:
    return ",".join(f"{token}:{weight:.6f}" for token, weight in weights)


def _oov_tsv(tokens, text: str) -> tuple[str, tuple[int, int, int]]:
    """The ``oov-stats --tsv`` line of ``text`` against ``tokens``, and its counts."""
    statuses = [wordpiece_segment_reference(tokens, UNK, w, MAX_CHARS)[1] for w in text.split()]
    total = len(statuses)
    word = sum(s != "IN_VOCAB" for s in statuses)
    sub = statuses.count("SUBWORD_OOV")
    return f"{total}\t{word}\t{sub}\t{word / total!r}\t{sub / total!r}\n", (total, word, sub)


def test_every_cli_output_matches_its_reference(tmp_path, capsys):
    rng = np.random.default_rng(28)
    path = {name: str(tmp_path / name) for name in (
        "train.txt", "test.txt", "lang.merges", "lang_vocab.txt", "seg.txt", "wp.tsv",
        "lang.vec", "en.vec", "bert.vec", "bert_vocab.txt", "train.dict", "eval.dict",
        "b.map", "a.map", "audit.tsv", "assignments.tsv", "expanded", "before.tsv",
        "after.tsv")}

    def run(*argv) -> str:
        assert dispatch([str(arg) for arg in argv]) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    def read(name) -> str:
        with open(path[name], encoding="utf-8", newline="") as fh:
            return fh.read()

    def write(name, text):
        with open(path[name], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    # --- inputs: a corpus, and a planted source / English / model triple
    train_words = [w for w, count in TRAIN_COUNTS.items() for _ in range(count)]
    train_words = [train_words[i] for i in rng.permutation(len(train_words))]
    write("train.txt", _lines(" ".join(train_words[i:i + 5])
                              for i in range(0, len(train_words), 5)))
    write("test.txt", TEST_TEXT)
    merges, lang_vocab = bpe_train_reference(Counter(TRAIN_COUNTS), VOCAB_SIZE)
    assert 10 < len(lang_vocab) < N - 10

    chain = planted_chain(rng, n=N, d_src=D_SRC, d_model=D_MODEL)
    src_tokens = [*lang_vocab, *tok_list("l", N - len(lang_vocab))]
    en_tokens = chain.en_tokens
    # source rows of many lengths, so that skipping a normalization shows,
    # and a few noisy ones, so that retrieval is not perfect
    latent = chain.latent.copy()
    latent[-NOISY:] += 0.8 * rng.standard_normal((NOISY, D_SRC))
    scales = rng.uniform(0.5, 2.0, N)
    write("lang.vec", format_matrix(src_tokens, latent @ chain.q1.T * scales[:, None]))
    write("en.vec", format_matrix(en_tokens, chain.english.rows))
    # the model: the first POOL English tokens and two language pieces; its
    # file lists them in reverse, its vocabulary file in order
    shared = list(lang_vocab[:2])
    model_tokens = [*en_tokens[:POOL], *shared]
    model_rows = np.vstack([chain.model.rows[:POOL], rng.standard_normal((2, D_MODEL))])
    write("bert.vec", format_matrix(model_tokens[::-1], model_rows[::-1]))
    write("bert_vocab.txt", _lines(model_tokens))
    write("train.dict", _lines(f"{s}\t{e}" for s, e in zip(src_tokens[:-NOISY], en_tokens)))
    eval_pairs = [(src_tokens[i], en_tokens[i]) for i in range(0, N, 3)]
    # a wrong target, and a second target for a listed source
    eval_pairs += [(src_tokens[1], en_tokens[2]), (src_tokens[N - 1], en_tokens[N - 2])]
    eval_pairs += [("missing", en_tokens[0]), (src_tokens[2], "missing")]  # both skipped
    write("eval.dict", _lines(f"{s} {e}" for s, e in eval_pairs))

    # the CLI reads the files' values: 9 significant digits of the rows above
    src_rows = read_matrix_reference(path["lang.vec"], labeled=True)[1]
    en_rows = read_matrix_reference(path["en.vec"], labeled=True)[1]
    bert_labels, bert_rows = read_matrix_reference(path["bert.vec"], labeled=True)
    model_emb = EmbeddingMatrix(Vocabulary(bert_labels), bert_rows)

    # --- BPE: merges, vocabulary and segmentation
    run("bpe-train", "--corpus", path["train.txt"], "--vocab-size", VOCAB_SIZE,
        "--out", path["lang.merges"], "--vocab-out", path["lang_vocab.txt"])
    assert read("lang.merges") == _lines(
        ["#version: vocab-bridge-1", *(f"{left} {right}" for left, right in merges)])
    assert read("lang_vocab.txt") == _lines(lang_vocab)

    run("bpe-apply", "--merges", path["lang.merges"], "--input", path["test.txt"],
        "--wordpiece-style", "--output", path["seg.txt"])
    segmented = []
    for line in TEST_TEXT.split("\n")[:-1]:
        pieces = [bpe_apply_reference(merges, w) for w in line.split()]
        segmented.append(" ".join(" ".join([p[0], *("##" + q for q in p[1:])]) for p in pieces))
    assert read("seg.txt") == _lines(segmented)

    run("wordpiece", "--vocab", path["lang_vocab.txt"], "--input", path["test.txt"],
        "--output", path["wp.tsv"])
    classified = []
    for word in TEST_TEXT.split():
        pieces, status = wordpiece_segment_reference(set(lang_vocab), UNK, word, MAX_CHARS)
        classified.append(f"{word}\t{status}\t{' '.join(pieces)}")
    assert read("wp.tsv") == _lines(classified)
    assert {line.split("\t")[1] for line in classified} == {
        "IN_VOCAB", "WORD_OOV_SUBWORD_OK", "SUBWORD_OOV"}

    # --- the two-stage fit recovers the planted maps
    out = run("align-fit-joint", "--src-emb", path["lang.vec"], "--en-emb", path["en.vec"],
              "--bert-emb", path["bert.vec"], "--bert-vocab", path["bert_vocab.txt"],
              "--dict", path["train.dict"], "--out-b", path["b.map"], "--out-a", path["a.map"])
    fields = dict(line.split("\t") for line in out.splitlines())
    assert (fields["stage1_pairs"], fields["stage2_pairs"]) == (str(N - NOISY), str(POOL))
    assert max(float(fields["stage1_residual"]), float(fields["stage2_residual"])) <= MAP_TOL
    b_map = read_matrix_reference(path["b.map"], labeled=False)[1]
    a_map = read_matrix_reference(path["a.map"], labeled=False)[1]
    assert np.max(np.abs(b_map - chain.q1)) <= MAP_TOL
    assert np.max(np.abs(a_map - chain.q2)) <= MAP_TOL

    # --- retrieval through the fitted source-to-English map
    out = run("align-eval", "--src-emb", path["lang.vec"], "--tgt-emb", path["en.vec"],
              "--map", path["b.map"], "--dict", path["eval.dict"], "--csls-k", CSLS_K)
    precision, score = evaluate_map_reference(
        LinearMap(b_map), EmbeddingMatrix(Vocabulary(src_tokens), src_rows),
        EmbeddingMatrix(Vocabulary(en_tokens), en_rows), BilingualDictionary(tuple(eval_pairs)),
        csls_k=CSLS_K,
    )
    assert out == f"precision_at_1\t{precision:.6f}\nunsupervised_score\t{score:.6f}\n"
    assert 0.5 < precision < 1 and 0.5 < score < 1

    mapped = _unit(src_rows @ b_map)
    english = _unit(en_rows)
    run("csls-nn", "--queries", path["lang.vec"], "--targets", path["en.vec"],
        "--map", path["b.map"], "--top", TOP, "--csls-k", CSLS_K, "--softmax",
        "--source-lang", "xx", "--out", path["audit.tsv"])
    ids, scores = csls_topk_reference(mapped, english, mapped, CSLS_K, TOP)
    audit = []
    for i in sorted(range(N), key=src_tokens.__getitem__):
        weights = mixture_weights_reference([(en_tokens[j], s) for j, s in zip(ids[i], scores[i])])
        audit += [f"xx\t{src_tokens[i]}\t{target}\t{s:.6f}\t{w:.6f}"
                  for (target, w), s in zip(weights, scores[i])]
    assert read("audit.tsv") == _lines(audit)

    # --- mixture assignments: CSLS against the anchor pool only
    run("mixture-build", "--src-emb", path["lang.vec"], "--b-map", path["b.map"],
        "--en-emb", path["en.vec"], "--bert-emb", path["bert.vec"],
        "--bert-vocab", path["bert_vocab.txt"], "--top-m", TOP, "--csls-k", CSLS_K,
        "--out", path["assignments.tsv"])
    queries = [i for i, token in enumerate(src_tokens) if token not in model_tokens]
    pool = [i for i, token in enumerate(en_tokens) if token in model_tokens]
    ids, scores = csls_topk_reference(mapped[queries], english[pool], mapped, CSLS_K, TOP)
    table = {}
    for i, id_row, score_row in zip(queries, ids, scores):
        weights = mixture_weights_reference(
            [(en_tokens[pool[j]], s) for j, s in zip(id_row, score_row)])
        table[src_tokens[i]] = _anchors(weights)
    assert read("assignments.tsv") == _lines(f"{t}\t{a}" for t, a in table.items())

    # --- expansion: the model vocabulary's order, then the new pieces' mixed rows
    run("expand", "--bert-emb", path["bert.vec"], "--bert-vocab", path["bert_vocab.txt"],
        "--lang-vocab", path["lang_vocab.txt"], "--strategy", "mixture",
        "--assignments", path["assignments.tsv"], "--out-dir", path["expanded"])
    new_tokens = [token for token in lang_vocab if token not in model_tokens]
    rows = [model_emb.row(token) for token in model_tokens]
    provenance = []
    for token in new_tokens:
        anchors = [a.rsplit(":", 1) for a in table[token].split(",")]
        total = sum(float(w) for _, w in anchors)
        weights = [(a, float(w) / total) for a, w in anchors]
        rows.append(mixture_embedding_reference(weights, model_emb))
        provenance.append(f"{token}\tmixture\t{_anchors(weights)}")
    expanded_tokens = [*model_tokens, *new_tokens]
    with open(f"{path['expanded']}/vocab.txt", encoding="utf-8", newline="") as fh:
        assert fh.read() == _lines(expanded_tokens)
    with open(f"{path['expanded']}/embeddings.vec", encoding="utf-8", newline="") as fh:
        assert fh.read() == format_matrix(expanded_tokens, np.vstack(rows))
    with open(f"{path['expanded']}/provenance.tsv", encoding="utf-8", newline="") as fh:
        assert fh.read() == _lines(provenance)

    # --- OOV before and after expansion, and their comparison
    run("oov-stats", "--vocab", path["bert_vocab.txt"], "--corpus", path["test.txt"], "--tsv",
        "--out", path["before.tsv"])
    run("oov-stats", "--vocab", f"{path['expanded']}/vocab.txt", "--corpus", path["test.txt"],
        "--tsv", "--out", path["after.tsv"])
    before, (total, word0, sub0) = _oov_tsv(set(model_tokens), TEST_TEXT)
    after, (_, word1, sub1) = _oov_tsv(set(expanded_tokens), TEST_TEXT)
    assert (read("before.tsv"), read("after.tsv")) == (before, after)
    assert sub1 < sub0

    out = run("compare-oov", "--before", path["before.tsv"], "--after", path["after.tsv"])
    assert out == _lines([
        f"total_words\t{total}",
        f"word_oov_delta\t{word1 - word0}",
        f"subword_oov_delta\t{sub1 - sub0}",
        f"word_oov_rate_delta\t{word1 / total - word0 / total:+.6f}",
        f"subword_oov_rate_delta\t{sub1 / total - sub0 / total:+.6f}",
        "any_rate_increase\tfalse",
    ])
