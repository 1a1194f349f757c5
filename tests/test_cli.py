"""End-user command behavior: exit codes, outputs and determinism."""

import json
import logging
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import (
    make_emb,
    planted_chain,
    random_orthogonal,
    random_semi_orthogonal,
    tok_list,
    unit_rows,
)
from test_tokenizer import repeat_corpus
from vocab_bridge import (
    LinearMap,
    bpe_apply,
    bpe_train,
    emit_expanded,
    expand_vocabulary,
    joint_rows,
    load_embeddings,
    load_vocabulary,
    save_embeddings,
)
import vocab_bridge
from vocab_bridge import alignment, cli, embeddings, oov
from vocab_bridge.alignment import load_map, save_map
from vocab_bridge.cli import _read_tokens, dispatch
from vocab_bridge.errors import MalformedLine
from vocab_bridge.tokenizer import MERGES_HEADER, save_bpe_model, wordpiece_style


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def planted_files(tmp_path):
    """Source and target embedding files related by a planted rotation."""
    rng = np.random.default_rng(0)
    rows = unit_rows(rng, 30, 6)
    q = random_orthogonal(rng, 6)
    src = make_emb(tok_list("s", 30), rows @ q.T)
    tgt = make_emb(tok_list("t", 30), rows)
    src_path = tmp_path / "src.vec"
    tgt_path = tmp_path / "tgt.vec"
    map_path = tmp_path / "planted.map"
    save_embeddings(src, src_path)
    save_embeddings(tgt, tgt_path)
    save_map(LinearMap(q), map_path)
    dict_path = write(
        tmp_path / "pairs.dict",
        "".join(f"s{i:04d}\tt{i:04d}\n" for i in range(30)),
    )
    return {
        "src": str(src_path),
        "tgt": str(tgt_path),
        "map": str(map_path),
        "dict": dict_path,
    }


class TestParsing:
    def test_help_exits_zero(self):
        assert dispatch(["--help"]) == 0

    def test_subcommand_help_exits_zero(self):
        assert dispatch(["oov-stats", "--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert dispatch([]) == 1

    def test_unknown_command(self):
        assert dispatch(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert dispatch(["oov-stats", "--vocab", "v", "--corpus", "c", "--bogus"]) == 1

    def test_missing_required_flag(self):
        assert dispatch(["oov-stats", "--vocab", "v"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        vocab = write(tmp_path / "v.txt", "a\n")
        assert dispatch(["oov-stats", "--vocab", vocab, "--corpus", "/no/such/file"]) == 2

    def test_malformed_embeddings_are_data_errors(self, tmp_path):
        bad = write(tmp_path / "bad.vec", "2 3\na 1.0 2.0 3.0\n")
        out = tmp_path / "m.map"
        code = dispatch(
            ["align-fit-independent", "--src-emb", bad, "--bert-emb", bad,
             "--out", str(out)]
        )
        assert code == 2


class TestUndecodableInput:
    """A file that is not UTF-8 is a data error (exit 2), not a traceback."""

    @pytest.mark.parametrize("flag", ["--input", "--corpus", "--src-emb", "--dict"])
    def test_exits_two_with_one_error_line(self, planted_files, tmp_path, capsys, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes({
            "--input": b"caf\xe9\n",
            "--corpus": b"a caf\xe9\n",
            "--src-emb": b"1 2\ncaf\xe9 0.5 0.5\n",
            "--dict": b"s0000\tcaf\xe9\n",
        }[flag])
        vocab = write(tmp_path / "v.txt", "a\n")
        src, tgt, linear_map = planted_files["src"], planted_files["tgt"], planted_files["map"]
        argv = {
            "--input": ["wordpiece", "--vocab", vocab],
            "--corpus": ["oov-stats", "--vocab", vocab],
            "--src-emb": ["align-eval", "--tgt-emb", tgt, "--map", linear_map,
                          "--dict", planted_files["dict"]],
            "--dict": ["align-eval", "--src-emb", src, "--tgt-emb", tgt, "--map", linear_map],
        }[flag]
        assert dispatch([*argv, flag, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("vocab-bridge: error: ") and "can't decode byte 0xe9" in line
        assert str(bad) in line


class TestCountFlags:
    """A negative count or seed, or a size below 1, is a usage error (exit 1), not a crash."""

    @pytest.mark.parametrize("command", ["align-fit-joint", "align-eval"])
    def test_negative_max_pairs(self, planted_files, tmp_path, capsys, command):
        if command == "align-fit-joint":
            args = ["--src-emb", planted_files["src"], "--en-emb", planted_files["tgt"],
                    "--bert-emb", planted_files["tgt"], "--out-b", str(tmp_path / "b.map"),
                    "--out-a", str(tmp_path / "a.map")]
        else:
            args = ["--src-emb", planted_files["src"], "--tgt-emb", planted_files["tgt"],
                    "--map", planted_files["map"]]
        argv = [command, *args, "--dict", planted_files["dict"], "--max-pairs"]
        assert dispatch(argv + ["-1"]) == 1
        assert "--max-pairs: must not be negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "b.map").exists()
        assert dispatch(argv + ["30"]) == 0

    def test_negative_oov_top(self, tmp_path, capsys):
        vocab = write(tmp_path / "v.txt", "a\n")
        corpus = write(tmp_path / "c.txt", "b c d b\n")
        argv = ["oov-stats", "--vocab", vocab, "--corpus", corpus, "--top"]
        assert dispatch(argv + ["-1"]) == 1
        assert "--top: must not be negative" in capsys.readouterr().err
        assert dispatch(argv + ["0"]) == 0
        assert "top OOV words" not in capsys.readouterr().out
        assert dispatch(argv + ["3"]) == 0
        out = capsys.readouterr().out
        assert out.split("top OOV words:\n")[1] == "  b\t2\n  c\t1\n  d\t1\n"

    def test_negative_seed(self, tmp_path, capsys):
        model = tmp_path / "model.vec"
        save_embeddings(make_emb(["a", "b"], np.eye(2)), model)
        lang_vocab = write(tmp_path / "lang.txt", "x\n")
        argv = ["expand", "--bert-emb", str(model), "--lang-vocab", lang_vocab,
                "--strategy", "random", "--out-dir", str(tmp_path / "o"), "--seed"]
        assert dispatch(argv + ["-1"]) == 1
        assert "--seed: must not be negative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert dispatch(argv + ["0"]) == 0

    def test_negative_min_count(self, tmp_path, capsys):
        model = tmp_path / "model.vec"
        save_embeddings(make_emb(["a", "b"], np.eye(2)), model)
        lang_vocab = write(tmp_path / "lang.txt", "x\n")
        counts = write(tmp_path / "counts.tsv", "x\t0\n")
        argv = ["expand", "--bert-emb", str(model), "--lang-vocab", lang_vocab,
                "--strategy", "random", "--seed", "0", "--counts", counts,
                "--out-dir", str(tmp_path / "o"), "--min-count"]
        assert dispatch(argv + ["-1"]) == 1
        assert "--min-count: must not be negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert dispatch(argv + ["0"]) == 0

    @pytest.mark.parametrize(
        "command, flag, good",
        [("bpe-train", "--vocab-size", "1"), ("align-eval", "--csls-k", "1"),
         ("align-eval", "--eval-k", "1"), ("align-eval", "--sample", "10"),
         ("csls-nn", "--csls-k", "1"), ("csls-nn", "--top", "1"),
         ("mixture-build", "--csls-k", "1"), ("mixture-build", "--top-m", "1")],
    )
    def test_non_positive_size(self, planted_files, tmp_path, capsys, command, flag, good):
        """A size, depth or sample flag below 1 is a usage error, not a library error."""
        out = tmp_path / "out"
        args = {
            "bpe-train": ["--corpus", write(tmp_path / "c.txt", "ab ab a\n"), "--out", str(out)],
            "align-eval": ["--src-emb", planted_files["src"], "--tgt-emb", planted_files["tgt"],
                           "--map", planted_files["map"], "--dict", planted_files["dict"]],
            "csls-nn": ["--queries", planted_files["src"], "--targets", planted_files["tgt"],
                        "--out", str(out)],
            "mixture-build": ["--src-emb", planted_files["src"], "--b-map", planted_files["map"],
                              "--en-emb", planted_files["tgt"], "--bert-emb", planted_files["tgt"],
                              "--out", str(out)],
        }[command]
        for bad in ("0", "-5"):
            assert dispatch([command, *args, flag, bad]) == 1
            assert f"{flag}: must be positive, got {bad}" in capsys.readouterr().err
        assert not out.exists()
        assert dispatch([command, *args, flag, good]) == 0

    def test_negative_max_chars(self, tmp_path, capsys):
        vocab = write(tmp_path / "v.txt", "a\n")
        text = write(tmp_path / "c.txt", "a\n")
        argv = ["wordpiece", "--vocab", vocab, "--input", text, "--max-chars"]
        assert dispatch(argv + ["-1"]) == 1
        assert "--max-chars: must not be negative" in capsys.readouterr().err
        assert dispatch(argv + ["1"]) == 0
        assert capsys.readouterr().out == "a\tIN_VOCAB\ta\n"


class TestBpeCommands:
    def test_train_writes_merges_and_vocab(self, tmp_path, capsys):
        corpus = write(tmp_path / "corpus.txt", "aa aa ab\n")
        merges = tmp_path / "model.merges"
        vocab = tmp_path / "model.vocab"
        code = dispatch(
            ["bpe-train", "--corpus", corpus, "--out", str(merges),
             "--vocab-out", str(vocab)]
        )
        assert code == 0
        lines = merges.read_text(encoding="utf-8").splitlines()
        assert lines[0] == MERGES_HEADER
        assert lines[1:] == ["a a</w>"]
        assert vocab.read_text(encoding="utf-8").splitlines() == ["aa", "##b", "a"]

    def test_apply_to_stdout(self, tmp_path, capsys):
        corpus = write(tmp_path / "corpus.txt", "aa aa ab\n")
        merges = tmp_path / "model.merges"
        assert dispatch(["bpe-train", "--corpus", corpus, "--out", str(merges)]) == 0
        capsys.readouterr()
        text = write(tmp_path / "new.txt", "aa ab\naab\n")
        assert dispatch(["bpe-apply", "--merges", str(merges), "--input", text]) == 0
        out = capsys.readouterr().out
        assert out == "aa a b\na a b\n"

    def test_apply_wordpiece_style(self, tmp_path, capsys):
        corpus = write(tmp_path / "corpus.txt", "aa aa ab\n")
        merges = tmp_path / "model.merges"
        assert dispatch(["bpe-train", "--corpus", corpus, "--out", str(merges)]) == 0
        capsys.readouterr()
        text = write(tmp_path / "new.txt", "ab\n")
        code = dispatch(
            ["bpe-apply", "--merges", str(merges), "--input", text,
             "--wordpiece-style"]
        )
        assert code == 0
        assert capsys.readouterr().out == "a ##b\n"

    @pytest.mark.parametrize("style", [False, True])
    def test_apply_repeats_match_per_word_segmentation(self, tmp_path, style):
        lines = repeat_corpus()
        model = bpe_train(Counter(w for line in lines[:30] for w in line.split()), 40)
        merges = tmp_path / "model.merges"
        save_bpe_model(model, merges)
        text = write(tmp_path / "new.txt", "".join(lines))
        out = tmp_path / "out.txt"
        argv = ["bpe-apply", "--merges", str(merges), "--input", text, "--output", str(out)]
        assert dispatch(argv + ["--wordpiece-style"] * style) == 0
        expected = []
        for line in lines:
            pieces = []
            for word in line.split():
                word_pieces = bpe_apply(model, word)
                pieces.extend(wordpiece_style(word_pieces) if style else word_pieces)
            expected.append(" ".join(pieces) + "\n")
        assert out.read_bytes() == "".join(expected).encode("utf-8")

    def test_wordpiece_classification(self, tmp_path, capsys):
        vocab = write(tmp_path / "v.txt", "les\nqu\n##'\n")
        text = write(tmp_path / "c.txt", "les qu' ça\n")
        assert dispatch(["wordpiece", "--vocab", vocab, "--input", text]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "les\tIN_VOCAB\tles",
            "qu'\tWORD_OOV_SUBWORD_OK\tqu ##'",
            "ça\tSUBWORD_OOV\t[UNK]",
        ]

    def test_wordpiece_unk_flag(self, tmp_path, capsys):
        vocab = write(tmp_path / "v.txt", "les\n")
        text = write(tmp_path / "c.txt", "les ça\n")
        assert dispatch(["wordpiece", "--vocab", vocab, "--input", text, "--unk", "<unk>"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "les\tIN_VOCAB\tles",
            "ça\tSUBWORD_OOV\t<unk>",
        ]

    def test_wordpiece_output_file(self, tmp_path):
        vocab = write(tmp_path / "v.txt", "a\n")
        text = write(tmp_path / "c.txt", "a\n")
        out = tmp_path / "segmented.tsv"
        code = dispatch(
            ["wordpiece", "--vocab", vocab, "--input", text, "--output", str(out)]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == "a\tIN_VOCAB\ta\n"


class TestAlignCommands:
    def test_fit_independent(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        rows = unit_rows(rng, 20, 5)
        q = random_orthogonal(rng, 5)
        src = make_emb(tok_list("w", 20), rows)
        model = make_emb(tok_list("w", 20), rows @ q)
        src_path, model_path = tmp_path / "src.vec", tmp_path / "model.vec"
        save_embeddings(src, src_path)
        save_embeddings(model, model_path)
        out = tmp_path / "fit.map"
        code = dispatch(
            ["align-fit-independent", "--src-emb", str(src_path),
             "--bert-emb", str(model_path), "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "pairs\t20" in stdout
        assert "mean_residual\t0.000000" in stdout
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert first == "5 5"

    def test_fit_joint_prints_both_stages(self, tmp_path, capsys):
        """Exactly four stdout lines, stage 1 then stage 2; without --bert-vocab
        every dictionary target with a model row anchors stage 2."""
        chain = planted_chain(np.random.default_rng(8), n=12, d_src=4, d_model=6)
        paths = {name: str(tmp_path / f"{name}.vec") for name in ("src", "english", "model")}
        for name, path in paths.items():
            save_embeddings(getattr(chain, name), path)
        pairs = write(tmp_path / "pairs.dict",
                      "".join(f"{s}\t{e}\n" for s, e in chain.dictionary.pairs))
        bert_vocab = write(tmp_path / "bert.txt", "".join(f"{t}\n" for t in chain.en_tokens[:8]))
        b_map, a_map = tmp_path / "b.map", tmp_path / "a.map"
        argv = ["align-fit-joint", "--src-emb", paths["src"], "--en-emb", paths["english"],
                "--bert-emb", paths["model"], "--dict", pairs,
                "--out-b", str(b_map), "--out-a", str(a_map)]
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == (
            "stage1_pairs\t12\nstage1_residual\t0.000000\n"
            "stage2_pairs\t12\nstage2_residual\t0.000000\n"
        )
        np.testing.assert_allclose(load_map(b_map).matrix, chain.q1, atol=1e-8)
        np.testing.assert_allclose(load_map(a_map).matrix, chain.q2, atol=1e-8)
        assert dispatch(argv + ["--bert-vocab", bert_vocab]) == 0
        assert capsys.readouterr().out == (
            "stage1_pairs\t12\nstage1_residual\t0.000000\n"
            "stage2_pairs\t8\nstage2_residual\t0.000000\n"
        )

    def test_align_eval_prints_metrics(self, planted_files, capsys):
        code = dispatch(
            ["align-eval", "--src-emb", planted_files["src"],
             "--tgt-emb", planted_files["tgt"], "--map", planted_files["map"],
             "--dict", planted_files["dict"]]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision_at_1\t1.000000" in out
        assert "unsupervised_score\t1.000000" in out

    def test_align_eval_maps_and_normalizes_each_matrix_once(self, planted_files, monkeypatch):
        """One ``_mapped_unit`` (one ``_unit_rows``, after the map) for the source,
        one ``_unit_rows`` for the targets, shared by precision and the
        unsupervised score."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("_mapped_unit", "_unit_rows"):
            monkeypatch.setattr(alignment, name, counting(name, getattr(alignment, name)))
        code = dispatch(
            ["align-eval", "--src-emb", planted_files["src"],
             "--tgt-emb", planted_files["tgt"], "--map", planted_files["map"],
             "--dict", planted_files["dict"]]
        )
        assert code == 0
        assert calls == {"_mapped_unit": 1, "_unit_rows": 2}

    def test_align_eval_warning_threshold(self, planted_files, capsys):
        code = dispatch(
            ["align-eval", "--src-emb", planted_files["src"],
             "--tgt-emb", planted_files["tgt"], "--map", planted_files["map"],
             "--dict", planted_files["dict"], "--warn-below-precision", "1.5"]
        )
        assert code == 0
        assert "below threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("floor, warned", [("1.5", True), ("0", False)])
    def test_align_eval_unsupervised_threshold(self, planted_files, capsys, floor, warned):
        """The planted map scores 1.0: a floor above it warns, a floor of 0 does not."""
        code = dispatch(
            ["align-eval", "--src-emb", planted_files["src"],
             "--tgt-emb", planted_files["tgt"], "--map", planted_files["map"],
             "--dict", planted_files["dict"], "--warn-below-unsupervised", floor]
        )
        assert code == 0
        err = capsys.readouterr().err
        if warned:
            assert "WARNING vocab_bridge.cli: unsupervised score 1.0000 below threshold 1.5000" in err
        else:
            assert err == ""

    def test_align_eval_max_pairs(self, planted_files, capsys):
        code = dispatch(
            ["align-eval", "--src-emb", planted_files["src"],
             "--tgt-emb", planted_files["tgt"], "--map", planted_files["map"],
             "--dict", planted_files["dict"], "--max-pairs", "5"]
        )
        assert code == 0
        assert "precision_at_1\t1.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["align-eval", "csls-nn"])
    def test_map_width_mismatch_is_data_error(self, tmp_path, capsys, command):
        """A 4 -> 6 map against 4-dim targets exits 2 with ``DimMismatch``."""
        rng = np.random.default_rng(2)
        src_path, tgt_path, map_path = tmp_path / "s.vec", tmp_path / "t.vec", tmp_path / "w.map"
        save_embeddings(make_emb(tok_list("s", 12), unit_rows(rng, 12, 4)), src_path)
        save_embeddings(make_emb(tok_list("t", 12), unit_rows(rng, 12, 4)), tgt_path)
        save_map(LinearMap(random_semi_orthogonal(rng, 4, 6)), map_path)
        pairs = write(tmp_path / "p.dict", "".join(f"s{i:04d}\tt{i:04d}\n" for i in range(12)))
        argv = {
            "align-eval": ["--src-emb", str(src_path), "--tgt-emb", str(tgt_path),
                           "--dict", pairs],
            "csls-nn": ["--queries", str(src_path), "--targets", str(tgt_path)],
        }[command]
        assert dispatch([command, *argv, "--map", str(map_path)]) == 2
        assert "DimMismatch" in capsys.readouterr().err


class TestCslsNn:
    def test_audit_columns(self, planted_files, capsys):
        code = dispatch(
            ["csls-nn", "--queries", planted_files["src"],
             "--targets", planted_files["tgt"], "--map", planted_files["map"],
             "--top", "3", "--source-lang", "fr"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 30 * 3
        first = lines[0].split("\t")
        assert first[0] == "fr"
        assert first[1] == "s0000"
        assert first[2] == "t0000"
        float(first[3])

    def test_softmax_column_sums_to_one(self, planted_files, capsys):
        code = dispatch(
            ["csls-nn", "--queries", planted_files["src"],
             "--targets", planted_files["tgt"], "--map", planted_files["map"],
             "--top", "4", "--softmax"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        probs = {}
        for line in lines:
            parts = line.split("\t")
            assert len(parts) == 5
            probs.setdefault(parts[1], []).append(float(parts[4]))
        for plist in probs.values():
            assert abs(sum(plist) - 1.0) <= 2e-6

    def test_token_restriction(self, planted_files, tmp_path, capsys):
        tokens = write(tmp_path / "only.txt", "s0003\ns0017\n")
        code = dispatch(
            ["csls-nn", "--queries", planted_files["src"],
             "--targets", planted_files["tgt"], "--map", planted_files["map"],
             "--tokens", tokens, "--top", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[1] for line in lines] == ["s0003", "s0017"]

    def test_unknown_token_in_restriction(self, planted_files, tmp_path, capsys, monkeypatch):
        """An unknown --tokens entry exits 2 before any query is scored."""
        def no_retrieval(*args, **kwargs):
            raise AssertionError("csls_knn ran before the token check")

        monkeypatch.setattr(alignment, "csls_knn", no_retrieval)
        tokens = write(tmp_path / "only.txt", "s0003\nghost\n")
        code = dispatch(
            ["csls-nn", "--queries", planted_files["src"],
             "--targets", planted_files["tgt"], "--map", planted_files["map"],
             "--tokens", tokens]
        )
        assert code == 2
        assert "TokenNotFound" in capsys.readouterr().err

    def test_unicode_line_separator_in_token_file_rejected(self, tmp_path):
        """U+0085 is whitespace inside a token, not a line end."""
        path = write(tmp_path / "tokens.txt", "a\u0085b\nc\n")
        with pytest.raises(MalformedLine) as err:
            _read_tokens(path)
        assert err.value.line == 1
        assert _read_tokens(write(tmp_path / "ok.txt", "a\n\nc\n")) == ["a", "c"]

    def test_top_clamped_to_target_count(self, planted_files, capsys):
        code = dispatch(
            ["csls-nn", "--queries", planted_files["src"],
             "--targets", planted_files["tgt"], "--map", planted_files["map"],
             "--top", "999"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 30 * 30


class TestOovCommands:
    def _fixtures(self, tmp_path):
        vocab = write(tmp_path / "v.txt", "je\nles\nqu\n##'\n")
        corpus = write(tmp_path / "c.txt", "je les qu' ça\n")
        return vocab, corpus

    def test_human_output(self, tmp_path, capsys):
        vocab, corpus = self._fixtures(tmp_path)
        assert dispatch(["oov-stats", "--vocab", vocab, "--corpus", corpus]) == 0
        out = capsys.readouterr().out
        assert "total words:       4" in out
        assert "word-level OOV:    2" in out
        assert "subword-level OOV: 1" in out

    def test_tsv_output(self, tmp_path, capsys):
        vocab, corpus = self._fixtures(tmp_path)
        assert dispatch(
            ["oov-stats", "--vocab", vocab, "--corpus", corpus, "--tsv"]
        ) == 0
        fields = capsys.readouterr().out.strip().split("\t")
        assert fields[:3] == ["4", "2", "1"]
        assert float(fields[3]) == 0.5
        assert float(fields[4]) == 0.25

    def test_types_tsv_output(self, tmp_path, capsys):
        """``--types`` reports the library's type-level rates for the same corpus."""
        vocab = write(tmp_path / "v.txt", "je\nles\nqu\n##'\n")
        text = "je les qu' ça ça ça\nje ça\n"
        corpus = write(tmp_path / "c.txt", text)
        argv = ["oov-stats", "--vocab", vocab, "--corpus", corpus, "--tsv"]
        assert dispatch(argv + ["--types"]) == 0
        report = oov.corpus_oov_stats(
            load_vocabulary(vocab), text.splitlines(keepends=True), count_types=True
        )
        want = oov.report_tsv_line(report) + "\n"
        assert capsys.readouterr().out == want
        assert dispatch(argv) == 0
        assert capsys.readouterr().out != want

    def test_json_output(self, tmp_path, capsys):
        vocab, corpus = self._fixtures(tmp_path)
        assert dispatch(
            ["oov-stats", "--vocab", vocab, "--corpus", corpus, "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_words"] == 4
        assert data["word_oov"] == 2
        assert data["subword_oov"] == 1

    def test_json_and_tsv_conflict(self, tmp_path):
        vocab, corpus = self._fixtures(tmp_path)
        code = dispatch(
            ["oov-stats", "--vocab", vocab, "--corpus", corpus, "--json", "--tsv"]
        )
        assert code == 1

    def test_output_file(self, tmp_path):
        vocab, corpus = self._fixtures(tmp_path)
        out = tmp_path / "report.tsv"
        assert dispatch(
            ["oov-stats", "--vocab", vocab, "--corpus", corpus, "--tsv",
             "--out", str(out)]
        ) == 0
        assert out.read_text(encoding="utf-8").startswith("4\t2\t1\t")

    def test_compare_oov_json(self, tmp_path, capsys):
        before = write(tmp_path / "before.tsv", "4\t2\t1\t0.5\t0.25\n")
        after = write(tmp_path / "after.tsv", "4\t1\t0\t0.25\t0.0\n")
        assert dispatch(
            ["compare-oov", "--before", before, "--after", after, "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["word_oov_delta"] == -1
        assert data["subword_oov_delta"] == -1
        assert data["any_rate_increase"] is False

    def test_compare_oov_human(self, tmp_path, capsys):
        before = write(tmp_path / "before.tsv", "4\t2\t1\t0.5\t0.25\n")
        after = write(tmp_path / "after.tsv", "4\t2\t2\t0.5\t0.5\n")
        assert dispatch(["compare-oov", "--before", before, "--after", after]) == 0
        captured = capsys.readouterr()
        assert "any_rate_increase\ttrue" in captured.out
        assert "subword_oov_delta\t1" in captured.out

    def test_compare_oov_mismatched_totals(self, tmp_path):
        before = write(tmp_path / "before.tsv", "4\t2\t1\t0.5\t0.25\n")
        after = write(tmp_path / "after.tsv", "5\t2\t1\t0.4\t0.2\n")
        assert dispatch(["compare-oov", "--before", before, "--after", after]) == 2

    def test_module_entry_point(self, tmp_path):
        """``python -m vocab_bridge.cli`` runs ``main``: its exit code is the process's."""
        before = write(tmp_path / "before.tsv", "4\t2\t1\t0.5\t0.25\n")
        after = write(tmp_path / "after.tsv", "4\t1\t0\t0.25\t0.0\n")
        src = str(Path(vocab_bridge.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "vocab_bridge.cli", "compare-oov", *argv],
                                  capture_output=True, text=True, env=env, cwd=tmp_path)

        done = run("--before", before, "--after", after)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (
            "total_words\t4\nword_oov_delta\t-1\nsubword_oov_delta\t-1\n"
            "word_oov_rate_delta\t-0.250000\nsubword_oov_rate_delta\t-0.250000\n"
            "any_rate_increase\tfalse\n"
        )
        done = run("--before", before, "--after", after, "--bogus")
        assert (done.returncode, done.stdout) == (1, "")
        assert "unrecognized arguments: --bogus" in done.stderr

    @pytest.mark.parametrize("rates", ["nan\t0.1", "0.9\t0.1"])
    def test_compare_oov_rates_contradict_counts(self, tmp_path, capsys, rates):
        """A rate must equal its count / total_words; NaN never does."""
        before = write(tmp_path / "before.tsv", f"10\t3\t1\t{rates}\n")
        after = write(tmp_path / "after.tsv", "10\t2\t1\t0.2\t0.1\n")
        assert dispatch(
            ["compare-oov", "--before", before, "--after", after, "--json"]
        ) == 2
        assert capsys.readouterr().out == ""


class TestMixtureAndExpand:
    def _english_model_files(self, tmp_path, rng):
        eng_rows = unit_rows(rng, 10, 4)
        english = make_emb(tok_list("en", 10), eng_rows)
        model = make_emb(tok_list("en", 10), rng.standard_normal((10, 3)))
        en_path = tmp_path / "en.vec"
        model_path = tmp_path / "model.vec"
        save_embeddings(english, en_path)
        save_embeddings(model, model_path)
        return english, model, str(en_path), str(model_path)

    def test_mixture_build_default_selection(self, tmp_path):
        rng = np.random.default_rng(2)
        english, model, en_path, model_path = self._english_model_files(tmp_path, rng)
        src = make_emb(["en0001", "nouveau"], unit_rows(rng, 2, 4))
        src_path = tmp_path / "src.vec"
        save_embeddings(src, src_path)
        b_path = tmp_path / "b.map"
        save_map(LinearMap(np.eye(4)), b_path)
        out = tmp_path / "assignments.tsv"
        code = dispatch(
            ["mixture-build", "--src-emb", str(src_path), "--b-map", str(b_path),
             "--en-emb", en_path, "--bert-emb", model_path, "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        # en0001 is already a model token, so only the new token is assigned
        assert len(lines) == 1 and lines[0].startswith("nouveau\t")

    @pytest.mark.parametrize("command", ["mixture-build", "expand"])
    def test_model_file_parsed_once(self, tmp_path, monkeypatch, command):
        """Without --bert-vocab the model vocabulary comes from the one parse."""
        rng = np.random.default_rng(7)
        _, _, en_path, model_path = self._english_model_files(tmp_path, rng)
        loads = Counter()

        def counting_load(path):
            loads[str(path)] += 1
            return load_embeddings(path)

        monkeypatch.setattr(cli, "load_embeddings", counting_load)
        if command == "mixture-build":
            src_path = tmp_path / "src.vec"
            save_embeddings(make_emb(["nouveau"], unit_rows(rng, 1, 4)), src_path)
            save_map(LinearMap(np.eye(4)), tmp_path / "b.map")
            args = ["--src-emb", str(src_path), "--b-map", str(tmp_path / "b.map"),
                    "--en-emb", en_path, "--out", str(tmp_path / "a.tsv")]
        else:
            lang_vocab = write(tmp_path / "lang.txt", "nouveau\n")
            args = ["--lang-vocab", lang_vocab, "--strategy", "random", "--seed", "0",
                    "--out-dir", str(tmp_path / "out")]
        assert dispatch([command, "--bert-emb", model_path, *args]) == 0
        assert loads[model_path] == 1

    def test_expand_random_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(3)
        _, _, _, model_path = self._english_model_files(tmp_path, rng)
        lang_vocab = write(tmp_path / "lang.txt", "nouveau\nen0001\nmot\n")
        args = ["expand", "--bert-emb", model_path, "--lang-vocab", lang_vocab,
                "--strategy", "random", "--seed", "42"]
        assert dispatch(args + ["--out-dir", str(tmp_path / "run1")]) == 0
        assert dispatch(args + ["--out-dir", str(tmp_path / "run2")]) == 0
        a = (tmp_path / "run1" / "embeddings.vec").read_bytes()
        b = (tmp_path / "run2" / "embeddings.vec").read_bytes()
        assert a == b
        vocab_lines = (tmp_path / "run1" / "vocab.txt").read_text("utf-8").splitlines()
        assert vocab_lines[:10] == tok_list("en", 10)
        assert vocab_lines[10:] == ["nouveau", "mot"]
        prov = (tmp_path / "run1" / "provenance.tsv").read_text("utf-8").splitlines()
        assert len(prov) == 2
        assert all(line.split("\t")[1] == "random" for line in prov)

    def test_expand_min_count_filter(self, tmp_path):
        rng = np.random.default_rng(4)
        _, _, _, model_path = self._english_model_files(tmp_path, rng)
        lang_vocab = write(tmp_path / "lang.txt", "rare\ncommon\n")
        counts = write(tmp_path / "counts.tsv", "rare\t1\ncommon\t10\n")
        out_dir = tmp_path / "filtered"
        code = dispatch(
            ["expand", "--bert-emb", model_path, "--lang-vocab", lang_vocab,
             "--strategy", "random", "--seed", "0", "--min-count", "5",
             "--counts", counts, "--out-dir", str(out_dir)]
        )
        assert code == 0
        vocab_lines = (out_dir / "vocab.txt").read_text("utf-8").splitlines()
        assert vocab_lines[10:] == ["common"]

    def test_expand_flag_requirements(self, tmp_path):
        rng = np.random.default_rng(5)
        _, _, _, model_path = self._english_model_files(tmp_path, rng)
        lang_vocab = write(tmp_path / "lang.txt", "x\n")
        base = ["expand", "--bert-emb", model_path, "--lang-vocab", lang_vocab,
                "--out-dir", str(tmp_path / "o")]
        assert dispatch(base + ["--strategy", "random"]) == 1
        assert dispatch(base + ["--strategy", "mixture"]) == 1
        assert dispatch(base + ["--strategy", "joint"]) == 1
        assert dispatch(base + ["--strategy", "random", "--seed", "1",
                                "--min-count", "2"]) == 1
        counts = write(tmp_path / "counts.tsv", "x\t3\n")
        assert dispatch(base + ["--strategy", "random", "--seed", "1",
                                "--counts", counts]) == 1
        # a missing strategy flag is reported before any input file is read
        missing = ["expand", "--bert-emb", str(tmp_path / "missing.vec"),
                   "--lang-vocab", lang_vocab, "--out-dir", str(tmp_path / "o")]
        for strategy in ("random", "mixture", "joint"):
            assert dispatch(missing + ["--strategy", strategy]) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, line",
        [("a b\t3\n", 1), ("ok\t1\nx\u3000y\t2\n", 2), ("a\t3\nb\t1\na\t-7\n", 3),
         ("a\t3\nb\t-1\n", 2), ("a\t3\nb\t1.5\n", 2)],
        ids=["space", "ideographic-space", "repeated", "negative", "non-integer"],
    )
    def test_counts_table_token_rule(self, tmp_path, text, line):
        with pytest.raises(MalformedLine) as err:
            cli._load_counts(write(tmp_path / "counts.tsv", text))
        assert err.value.line == line

    def test_expand_joint_from_fitted_maps(self, tmp_path, capsys):
        """``expand --strategy joint`` writes what ``joint_rows`` gives on the same inputs."""
        chain = planted_chain(np.random.default_rng(9), n=12, d_src=4, d_model=6)
        paths = {name: str(tmp_path / f"{name}.vec") for name in ("src", "english", "model")}
        for name, path in paths.items():
            save_embeddings(getattr(chain, name), path)
        pairs = write(tmp_path / "pairs.dict",
                      "".join(f"{s}\t{e}\n" for s, e in chain.dictionary.pairs))
        b_map, a_map = str(tmp_path / "b.map"), str(tmp_path / "a.map")
        assert dispatch(["align-fit-joint", "--src-emb", paths["src"], "--en-emb", paths["english"],
                         "--bert-emb", paths["model"], "--dict", pairs,
                         "--out-b", b_map, "--out-a", a_map]) == 0
        new_tokens = ["l0003", "l0000", "l0011"]
        lang_vocab = write(tmp_path / "lang.txt", "".join(f"{t}\n" for t in ["en0001", *new_tokens]))
        base = ["expand", "--bert-emb", paths["model"], "--strategy", "joint",
                "--src-emb", paths["src"], "--b-map", b_map, "--a-map", a_map]
        out_dir = tmp_path / "joint"
        assert dispatch(base + ["--lang-vocab", lang_vocab, "--out-dir", str(out_dir)]) == 0

        model = load_embeddings(paths["model"])
        rows, provenance = joint_rows(
            new_tokens, load_embeddings(paths["src"]), load_map(b_map), load_map(a_map)
        )
        emit_expanded(expand_vocabulary(model.vocab, model, rows, provenance), provenance,
                      tmp_path / "want")
        assert (out_dir / "embeddings.vec").read_bytes() == \
            (tmp_path / "want" / "embeddings.vec").read_bytes()
        assert (out_dir / "provenance.tsv").read_text("utf-8").splitlines() == [
            f"{t}\tjoint\tmapped from source row" for t in new_tokens
        ]

        capsys.readouterr()
        unknown = write(tmp_path / "unknown.txt", "l0001\nnouveau\n")
        assert dispatch(base + ["--lang-vocab", unknown, "--out-dir", str(tmp_path / "o")]) == 2
        assert "MissingToken" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_expand_mixture_from_file(self, tmp_path):
        rng = np.random.default_rng(6)
        _, model, _, model_path = self._english_model_files(tmp_path, rng)
        lang_vocab = write(tmp_path / "lang.txt", "nouveau\n")
        assignments = write(
            tmp_path / "assign.tsv", "nouveau\ten0002:0.600000,en0005:0.400000\n"
        )
        out_dir = tmp_path / "mixed"
        code = dispatch(
            ["expand", "--bert-emb", model_path, "--lang-vocab", lang_vocab,
             "--strategy", "mixture", "--assignments", assignments,
             "--out-dir", str(out_dir)]
        )
        assert code == 0
        out = load_embeddings(out_dir / "embeddings.vec")
        want = 0.6 * model.row("en0002") + 0.4 * model.row("en0005")
        np.testing.assert_allclose(out.row("nouveau"), want, rtol=1e-6)

    def test_expand_rejects_repeated_assignment(self, tmp_path, capsys):
        """A token assigned twice is a data error, not a silent last-line win."""
        rng = np.random.default_rng(6)
        _, _, _, model_path = self._english_model_files(tmp_path, rng)
        lang_vocab = write(tmp_path / "lang.txt", "nouveau\n")
        assignments = write(
            tmp_path / "assign.tsv", "nouveau\ten0001:1.000000\nnouveau\ten0002:1.000000\n"
        )
        out_dir = tmp_path / "mixed"
        code = dispatch(
            ["expand", "--bert-emb", model_path, "--lang-vocab", lang_vocab,
             "--strategy", "mixture", "--assignments", assignments,
             "--out-dir", str(out_dir)]
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_mixture_build_rejects_repeated_token(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        _, _, en_path, model_path = self._english_model_files(tmp_path, rng)
        src_path = tmp_path / "src.vec"
        save_embeddings(make_emb(["nouveau", "mot"], unit_rows(rng, 2, 4)), src_path)
        save_map(LinearMap(np.eye(4)), tmp_path / "b.map")
        tokens = write(tmp_path / "tokens.txt", "nouveau\nmot\nnouveau\n")
        out = tmp_path / "assignments.tsv"
        code = dispatch(
            ["mixture-build", "--src-emb", str(src_path), "--b-map", str(tmp_path / "b.map"),
             "--en-emb", en_path, "--bert-emb", model_path, "--tokens", tokens,
             "--out", str(out)]
        )
        assert code == 2
        assert "'nouveau'" in capsys.readouterr().err
        assert not out.exists()


class TestLoggingConfig:
    def test_info_messages_appear_at_debug_level(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("VOCAB_BRIDGE_LOG", "debug")
        corpus = write(tmp_path / "corpus.txt", "aa aa ab\n")
        merges = tmp_path / "model.merges"
        assert dispatch(["bpe-train", "--corpus", corpus, "--out", str(merges)]) == 0
        assert "trained 1 merges" in capsys.readouterr().err

    def test_info_messages_hidden_by_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("VOCAB_BRIDGE_LOG", raising=False)
        corpus = write(tmp_path / "corpus.txt", "aa aa ab\n")
        merges = tmp_path / "model.merges"
        assert dispatch(["bpe-train", "--corpus", corpus, "--out", str(merges)]) == 0
        assert "trained" not in capsys.readouterr().err

    def test_unknown_level_warns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("VOCAB_BRIDGE_LOG", "chatty")
        corpus = write(tmp_path / "corpus.txt", "aa\n")
        merges = tmp_path / "model.merges"
        assert dispatch(["bpe-train", "--corpus", corpus, "--out", str(merges)]) == 0
        assert "unknown VOCAB_BRIDGE_LOG" in capsys.readouterr().err

    def test_dispatch_keeps_a_hosts_root_handlers(self, tmp_path, capsys, monkeypatch):
        """A root handler added by the caller stays attached and open across
        calls, and package records still reach it."""
        monkeypatch.setenv("VOCAB_BRIDGE_LOG", "chatty")
        root = logging.getLogger()
        handler = logging.FileHandler(tmp_path / "host.log", encoding="utf-8")
        root.addHandler(handler)
        try:
            report = write(tmp_path / "r.tsv", "4\t2\t1\t0.5\t0.25\n")
            for _ in range(2):
                assert dispatch(["compare-oov", "--before", report, "--after", report]) == 0
            assert handler in root.handlers
            assert handler.stream is not None and not handler.stream.closed
        finally:
            root.removeHandler(handler)
            handler.close()
        logged = (tmp_path / "host.log").read_text(encoding="utf-8")
        assert logged.count("unknown VOCAB_BRIDGE_LOG value 'chatty'") == 2
        assert capsys.readouterr().err.count("WARNING vocab_bridge.cli: unknown") == 2


class TestParserReuse:
    """``dispatch`` builds its parser once per process; no call's flags,
    errors, help or log level carry into the next call."""

    def _oov_files(self, tmp_path):
        vocab = write(tmp_path / "v.txt", "je\nles\nqu\n##'\n")
        corpus = write(tmp_path / "c.txt", "je les qu' ça\n")
        return ["--vocab", vocab, "--corpus", corpus]

    def test_parser_is_built_once(self, tmp_path, planted_files, monkeypatch, capsys):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        corpus = write(tmp_path / "corpus.txt", "aa aa ab\n")
        report = write(tmp_path / "r.tsv", "4\t2\t1\t0.5\t0.25\n")
        assert dispatch(["oov-stats", *self._oov_files(tmp_path), "--tsv"]) == 0
        first = len(built)
        assert built.count("vocab-bridge") == 1
        assert dispatch(["bpe-train", "--corpus", corpus, "--out", str(tmp_path / "m")]) == 0
        assert dispatch(["compare-oov", "--before", report, "--after", report]) == 0
        assert dispatch(["csls-nn", "--queries", planted_files["src"],
                         "--targets", planted_files["tgt"], "--top", "1"]) == 0
        assert dispatch(["oov-stats", "--bogus"]) == 1
        assert len(built) == first

    def test_json_then_plain_oov_stats(self, tmp_path, capsys):
        files = self._oov_files(tmp_path)
        assert dispatch(["oov-stats", *files, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total_words"] == 4
        assert dispatch(["oov-stats", *files]) == 0
        assert "total words:       4" in capsys.readouterr().out

    def test_softmax_then_plain_csls_nn(self, planted_files, capsys):
        argv = ["csls-nn", "--queries", planted_files["src"],
                "--targets", planted_files["tgt"], "--map", planted_files["map"], "--top", "2"]
        assert dispatch([*argv, "--softmax"]) == 0
        assert {len(line.split("\t")) for line in capsys.readouterr().out.splitlines()} == {5}
        assert dispatch(argv) == 0
        assert {len(line.split("\t")) for line in capsys.readouterr().out.splitlines()} == {4}

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        files = self._oov_files(tmp_path)
        assert dispatch(["oov-stats", *files, "--json", "--tsv"]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert dispatch(["oov-stats", *files, "--tsv"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("4\t2\t1\t")
        assert captured.err == ""

    def test_help_then_valid_call(self, tmp_path, capsys):
        assert dispatch(["--help"]) == 0
        assert "usage: vocab-bridge" in capsys.readouterr().out
        assert dispatch(["oov-stats", *self._oov_files(tmp_path), "--tsv"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("4\t2\t1\t")
        assert "usage" not in captured.out + captured.err

    def test_log_level_is_read_on_every_call(self, tmp_path, capsys, monkeypatch):
        corpus = write(tmp_path / "corpus.txt", "aa aa ab\n")
        argv = ["bpe-train", "--corpus", corpus, "--out", str(tmp_path / "model.merges")]
        monkeypatch.setenv("VOCAB_BRIDGE_LOG", "debug")
        assert dispatch(argv) == 0
        assert "trained 1 merges" in capsys.readouterr().err
        monkeypatch.delenv("VOCAB_BRIDGE_LOG")
        assert dispatch(argv) == 0
        assert "trained" not in capsys.readouterr().err


class TestParseCache:
    """The ``__vbcache__`` parse cache seen through the CLI: a pipeline gives the same
    bytes whether its matrices are parsed or loaded from entries."""

    def test_pipeline_output_is_the_same_from_parses_and_from_entries(
            self, tmp_path, capsys, monkeypatch):
        """Run 1 reads racy files, so every read parses and nothing is stored;
        run 2 reads aged ones, so each file's first read stores an entry and
        every later read of it is a hit.  Stdout and every output file match."""
        chain = planted_chain(np.random.default_rng(11), n=12, d_src=4, d_model=6)
        inp, out = tmp_path / "in", tmp_path / "out"
        inp.mkdir()
        out.mkdir()
        paths = {name: str(inp / f"{name}.vec") for name in ("src", "english", "model")}
        for name, path in paths.items():
            save_embeddings(getattr(chain, name), path)
        pairs = write(inp / "pairs.dict", "".join(f"{s}\t{e}\n" for s, e in chain.dictionary.pairs))
        lang_vocab = write(inp / "lang.txt", "".join(f"{t}\n" for t in chain.src_tokens))
        b_map, a_map, assignments = str(out / "b.map"), str(out / "a.map"), str(out / "a.tsv")
        pipeline = [
            ["align-fit-joint", "--src-emb", paths["src"], "--en-emb", paths["english"],
             "--bert-emb", paths["model"], "--dict", pairs, "--out-b", b_map, "--out-a", a_map],
            ["align-eval", "--src-emb", paths["src"], "--tgt-emb", paths["english"],
             "--map", b_map, "--dict", pairs],
            ["csls-nn", "--queries", paths["src"], "--targets", paths["english"], "--map", b_map],
            ["mixture-build", "--src-emb", paths["src"], "--b-map", b_map,
             "--en-emb", paths["english"], "--bert-emb", paths["model"], "--out", assignments],
            ["expand", "--bert-emb", paths["model"], "--lang-vocab", lang_vocab,
             "--strategy", "mixture", "--assignments", assignments,
             "--out-dir", str(out / "expanded")],
        ]
        reads = []
        cached = embeddings._cached

        def recording(entry, path, labeled):
            got = cached(entry, path, labeled)
            reads.append((path, got is not None))
            return got

        monkeypatch.setattr(embeddings, "_cached", recording)

        def run(shift_s):
            """Stdout and output bytes of the pipeline, its clock moved by ``shift_s``."""
            now = time.time_ns
            with mock.patch.object(embeddings, "time_ns", lambda: now() + shift_s * 10**9):
                for argv in pipeline:
                    assert dispatch(argv) == 0
            files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                     if p.is_file() and "__vbcache__" not in p.parts}
            return capsys.readouterr().out, files

        # held 60 s back, every file is as racy as one just written, however slow the host
        parsed = run(-60)
        assert len(reads) == 14 and not any(hit for _, hit in reads)
        assert not list(tmp_path.rglob("__vbcache__"))
        reads.clear()
        loaded = run(60)
        seen = set()
        for path, hit in reads:
            assert hit == (path in seen), path
            seen.add(path)
        assert len(reads) == 14 and len(seen) == 4  # src, english, model and b.map
        assert loaded == parsed
        assert len(parsed[1]) == 6 and parsed[0].count("\n") > 12
