"""Acceptance suite: every shipped guarantee checked end to end.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS or FAIL
line per criterion.
"""

import json
import math
import time
from collections import Counter

import numpy as np

import oracles
from conftest import (
    make_emb,
    planted_chain,
    random_orthogonal,
    random_semi_orthogonal,
    tok_list,
    unit_rows,
)
from vocab_bridge import (
    LinearMap,
    Vocabulary,
    bpe_train,
    build_all_assignments,
    corpus_oov_stats,
    csls_knn,
    evaluate_map,
    expand_vocabulary,
    fit_joint_mapping,
    mixture_weights,
    procrustes_solve,
    random_rows,
    save_embeddings,
    select_new_subwords,
    wordpiece_segment,
)
from vocab_bridge import alignment
from vocab_bridge.cli import dispatch
from vocab_bridge.tokenizer import SegmentStatus


def _report(number, description, body):
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_procrustes_planted_recovery():
    def body():
        rng = np.random.default_rng(11)
        q = random_orthogonal(rng, 20)
        x = rng.standard_normal((200, 20))
        y = x @ q
        start = time.perf_counter()
        m = procrustes_solve(x, y)
        elapsed = time.perf_counter() - start
        assert np.linalg.norm(m.matrix - q) <= 1e-6
        gram = m.matrix.T @ m.matrix
        assert np.abs(gram - np.eye(20)).max() <= 1e-6
        assert elapsed < 1.0

    _report(1, "planted 200x20 rotation recovered exactly in under a second", body)


def test_criterion_2_procrustes_matches_grid_search():
    def body():
        for i in range(20):
            rng = np.random.default_rng(2000 + i)
            n = int(rng.integers(20, 60))
            x = unit_rows(rng, n, 2)
            r = random_orthogonal(rng, 2)
            y = x @ r + 0.1 * rng.standard_normal((n, 2))
            solved = oracles.procrustes_objective(
                x, y, procrustes_solve(x, y).matrix
            )
            grid = oracles.procrustes_grid_min_2d(x, y, 100000)
            assert solved <= grid + 1e-9
            assert abs(solved - grid) <= 1e-6

    _report(2, "closed-form 2-D solution matches a 100k-point grid search", body)


def test_criterion_3_csls_matches_exhaustive_oracle():
    def body():
        for i in range(20):
            rng = np.random.default_rng(3000 + i)
            if i == 0:
                n_q = n_t = 200
                d = 16
            else:
                n_q = int(rng.integers(12, 200))
                n_t = int(rng.integers(12, 200))
                d = int(rng.integers(4, 17))
            q_rows = unit_rows(rng, n_q, d)
            t_rows = unit_rows(rng, n_t, d)
            if i % 4 == 1:
                # exact duplicate targets force ties under the id tie-break
                t_rows[5] = t_rows[2]
            queries = make_emb(tok_list("q", n_q), q_rows)
            targets = make_emb(tok_list("t", n_t), t_rows)
            got = csls_knn(queries, targets, top=5, csls_k=10)
            want = oracles.csls_all_pairs(q_rows, t_rows, 10)
            assert [query for query, _ in got] == tok_list("q", n_q)
            for row, (_, entries) in enumerate(got):
                ids = oracles.top_ids(want[row], 5)
                assert [e[0] for e in entries] == [f"t{j:04d}" for j in ids]
                for (_, score), j in zip(entries, ids):
                    assert abs(score - want[row][j]) <= 1e-9

    _report(3, "CSLS scores and top-5 lists match the brute-force oracle", body)


def test_criterion_3_with_tiny_row_blocks(monkeypatch):
    """Criterion 3 again, with row blocks of 2 to 41 rows in the CSLS kernel."""
    monkeypatch.setattr(alignment, "_BLOCK_CELLS", 500)
    test_criterion_3_csls_matches_exhaustive_oracle()


def test_criterion_4_mixture_weight_arithmetic():
    def body():
        rng = np.random.default_rng(4)
        for _ in range(50):
            scores = rng.standard_normal(int(rng.integers(1, 8)))
            out = mixture_weights([scores])[0]
            assert abs(sum(out.tolist()) - 1.0) <= 1e-9
        uniform = mixture_weights([[0.37] * 5])[0]
        for w in uniform:
            assert abs(w - 0.2) <= 1e-9
        shaped = mixture_weights([[math.log(7.0), math.log(2.0), 0.0]])[0]
        for w, want in zip(shaped, (0.7, 0.2, 0.1)):
            assert abs(w - want) <= 1e-9

    _report(4, "mixture weights sum to one, tie evenly, and hit 0.7/0.2/0.1", body)


def test_criterion_5_two_stage_planted_pipeline():
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(55)
        chain = planted_chain(rng, n=500, d_src=300, d_model=768)
        to_english, to_model = fit_joint_mapping(
            chain.src, chain.english, chain.model, chain.dictionary, chain.model.vocab
        )
        assert np.linalg.norm(to_english.map.matrix - chain.q1) <= 1e-6
        assert np.linalg.norm(to_model.map.matrix - chain.q2) <= 1e-6
        composed = LinearMap(to_english.map.matrix @ to_model.map.matrix)
        precision, _ = evaluate_map(
            composed, chain.src, chain.model, chain.dictionary
        )
        assert precision == 1.0
        assignments = build_all_assignments(
            list(chain.src.vocab.tokens), chain.src, to_english.map,
            chain.english, chain.model, chain.model.vocab,
        )
        hits = sum(
            anchors[0][0] == tok.replace("l", "en", 1) for tok, anchors in assignments
        )
        assert hits / len(assignments) >= 0.99
        assert time.perf_counter() - start < 30.0

    _report(5, "500-token two-stage chain: maps, precision and anchors recovered", body)


def test_criterion_6_french_segmentation_example():
    def body():
        pieces = ["je", "sens", "qu", "##'", "entre", "et", "les", "films",
                  "de", "scientifiques"]
        sentence = "je sens qu' entre ça et les films de médecins et scientifiques"
        vocab = Vocabulary(pieces)
        seg = wordpiece_segment(vocab, "[UNK]", "qu'")
        assert seg.pieces == ("qu", "##'")
        assert seg.status is SegmentStatus.WORD_OOV_SUBWORD_OK
        for word in ("ça", "médecins"):
            seg = wordpiece_segment(vocab, "[UNK]", word)
            assert seg.pieces == ("[UNK]",)
            assert seg.status is SegmentStatus.SUBWORD_OOV
        report = corpus_oov_stats(vocab, "[UNK]", [sentence])
        assert report.total_words == 12
        assert report.word_oov == 3
        assert report.subword_oov == 2

    _report(6, "French sentence: 3 word-level and 2 subword-level OOV hits", body)


def test_criterion_7_oov_monotone_under_vocabulary_growth():
    def body():
        def corpus_words(rng, alphabet, n_words, max_len=6):
            return [
                "".join(rng.choice(alphabet, size=rng.integers(1, max_len + 1)))
                for _ in range(n_words)
            ]

        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            model_alpha = ["a", "b", "c", "d"]
            lang_alpha = ["a", "b", "e", "f"]
            model_corpus = Counter(
                corpus_words(rng, model_alpha, int(rng.integers(5, 40)))
            )
            lang_corpus = Counter(
                corpus_words(rng, lang_alpha, int(rng.integers(5, 40)))
            )
            base_model = bpe_train(model_corpus, int(rng.integers(4, 30)))
            lang_model = bpe_train(lang_corpus, int(rng.integers(4, 30)))
            base = Vocabulary(base_model.wordpiece_vocab)
            lang_vocab = Vocabulary(lang_model.wordpiece_vocab)
            new = select_new_subwords(lang_vocab, base)
            expanded = Vocabulary(base.tokens + tuple(new))
            eval_words = corpus_words(rng, ["a", "b", "c", "d", "e", "f"], 30)
            eval_words += list(
                rng.choice(list(model_corpus) + list(lang_corpus), size=10)
            )
            line = " ".join(eval_words)
            before = corpus_oov_stats(base, "[UNK]", [line])
            after = corpus_oov_stats(expanded, "[UNK]", [line])
            assert after.word_oov_rate <= before.word_oov_rate
            assert after.subword_oov_rate <= before.subword_oov_rate
            assert after.subword_oov <= after.word_oov <= after.total_words

    _report(7, "vocabulary growth never raises either OOV rate in 100 trials", body)


def test_criterion_8_expansion_integrity_at_scale():
    def body():
        rng = np.random.default_rng(8)
        n, d, n_new = 10000, 32, 5000
        model = make_emb(tok_list("m", n), rng.standard_normal((n, d)))
        new_tokens = [f"x{i:04d}" for i in range(n_new)]
        new_rows, provenance = random_rows(new_tokens, model.vocab, model, seed=88)
        first = expand_vocabulary(model.vocab, model, new_rows, provenance)
        assert np.array_equal(first.rows[:n], model.rows)
        assert np.array_equal(first.rows[n:], new_rows)
        assert first.vocab.tokens[:n] == model.vocab.tokens
        for probe in (0, 137, n - 1):
            assert first.vocab.id(model.vocab.token(probe)) == probe
        assert len(provenance) == n_new
        assert [token for token, _, _ in provenance] == new_tokens
        assert list(first.vocab.tokens[n:]) == new_tokens
        again_rows, again_provenance = random_rows(new_tokens, model.vocab, model, seed=88)
        second = expand_vocabulary(model.vocab, model, again_rows, again_provenance)
        assert provenance == again_provenance
        assert np.array_equal(first.rows, second.rows)
        # a model vocabulary in another order keeps its own ids
        flipped = Vocabulary(model.vocab.tokens[::-1])
        third = expand_vocabulary(flipped, model, new_rows, provenance)
        assert np.array_equal(third.rows[:n], model.rows[::-1])
        assert np.array_equal(third.rows[n:], new_rows)

    _report(8, "10k+5k expansion keeps originals bit-identical and reproducible", body)


def test_criterion_9_bpe_determinism_and_first_merge(tmp_path):
    def body():
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "low low low low lower lower newest newest newest wider wider\n",
            encoding="utf-8",
        )
        out_a, out_b = tmp_path / "a.merges", tmp_path / "b.merges"
        assert dispatch(
            ["bpe-train", "--corpus", str(corpus), "--out", str(out_a)]
        ) == 0
        assert dispatch(
            ["bpe-train", "--corpus", str(corpus), "--out", str(out_b)]
        ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert len(out_a.read_bytes()) > 0
        micro = bpe_train({"aa": 2, "ab": 1}, 10)
        first = micro.merges[0]
        assert first == ("a", "a</w>")
        assert tuple(s.replace("</w>", "") for s in first) == ("a", "a")

    _report(9, "BPE training is byte-deterministic; micro-corpus merges (a, a)", body)


def test_criterion_10_cli_pipeline_reduces_subword_oov(tmp_path, capsys):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(10)

        lang_corpus = tmp_path / "lang_corpus.txt"
        lang_corpus.write_text(
            "zuko zuko zuko zuko om om om om om miko miko miko\n"
            "zuk zuk kim kim uzo uzo mik om zuko miko\n",
            encoding="utf-8",
        )
        lang_merges = tmp_path / "lang.merges"
        lang_vocab_path = tmp_path / "lang_vocab.txt"
        assert dispatch(
            ["bpe-train", "--corpus", str(lang_corpus), "--vocab-size", "40",
             "--out", str(lang_merges), "--vocab-out", str(lang_vocab_path)]
        ) == 0

        lang_tokens = [
            line for line in
            lang_vocab_path.read_text(encoding="utf-8").splitlines() if line
        ]
        n = len(lang_tokens)
        d1, d2 = 6, 10
        latent = unit_rows(rng, n, d1)
        q1 = random_orthogonal(rng, d1)
        q2 = random_semi_orthogonal(rng, d1, d2)
        en_tokens = tok_list("en", n)
        bert_tokens = ["[UNK]", "q", "##q"] + en_tokens
        bert_rows = np.vstack([rng.standard_normal((3, d2)), latent @ q2])

        lang_vec = tmp_path / "lang.vec"
        en_vec = tmp_path / "en.vec"
        bert_vec = tmp_path / "bert.vec"
        bert_vocab = tmp_path / "bert_vocab.txt"
        save_embeddings(
            make_emb(lang_tokens, latent @ q1.T), lang_vec
        )
        save_embeddings(make_emb(en_tokens, latent), en_vec)
        save_embeddings(make_emb(bert_tokens, bert_rows), bert_vec)
        bert_vocab.write_text(
            "".join(t + "\n" for t in bert_tokens), encoding="utf-8"
        )
        dict_path = tmp_path / "pairs.dict"
        dict_path.write_text(
            "".join(f"{lt}\t{et}\n" for lt, et in zip(lang_tokens, en_tokens)),
            encoding="utf-8",
        )

        b_map, a_map = tmp_path / "b.map", tmp_path / "a.map"
        assert dispatch(
            ["align-fit-joint", "--src-emb", str(lang_vec), "--en-emb", str(en_vec),
             "--bert-emb", str(bert_vec), "--bert-vocab", str(bert_vocab),
             "--dict", str(dict_path), "--out-b", str(b_map), "--out-a", str(a_map)]
        ) == 0

        assignments = tmp_path / "assignments.tsv"
        assert dispatch(
            ["mixture-build", "--src-emb", str(lang_vec), "--b-map", str(b_map),
             "--en-emb", str(en_vec), "--bert-emb", str(bert_vec),
             "--bert-vocab", str(bert_vocab), "--out", str(assignments)]
        ) == 0

        out_dir = tmp_path / "expanded"
        assert dispatch(
            ["expand", "--bert-emb", str(bert_vec), "--bert-vocab", str(bert_vocab),
             "--lang-vocab", str(lang_vocab_path), "--strategy", "mixture",
             "--assignments", str(assignments), "--out-dir", str(out_dir)]
        ) == 0

        before_tsv = tmp_path / "before.tsv"
        after_tsv = tmp_path / "after.tsv"
        assert dispatch(
            ["oov-stats", "--vocab", str(bert_vocab), "--corpus", str(lang_corpus),
             "--tsv", "--out", str(before_tsv)]
        ) == 0
        assert dispatch(
            ["oov-stats", "--vocab", str(out_dir / "vocab.txt"),
             "--corpus", str(lang_corpus), "--tsv", "--out", str(after_tsv)]
        ) == 0
        before_subword = int(
            before_tsv.read_text(encoding="utf-8").split("\t")[2]
        )
        assert before_subword > 0

        capsys.readouterr()
        assert dispatch(
            ["compare-oov", "--before", str(before_tsv), "--after", str(after_tsv),
             "--json"]
        ) == 0
        delta = json.loads(capsys.readouterr().out)
        assert delta["subword_oov_delta"] < 0
        assert delta["any_rate_increase"] is False
        assert time.perf_counter() - start < 60.0

    _report(10, "CLI pipeline runs clean and strictly cuts subword OOV", body)
