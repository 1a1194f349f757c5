"""Span tracing of the vocab-bridge package, applied from outside it.

``Tracer.install`` replaces every public function of the layer modules
with a timing wrapper at every module binding the pipeline calls through:
``oov.classify_corpus`` and ``cli.load_embeddings`` are names bound by
import, so the wrapper goes there as well as into the defining module.  The
constructors of the value classes that copy or check data are wrapped too.
Generator functions are left alone: their work happens while the caller
iterates, so it stays in the caller's self time.

Each wrapped call records a span (name, start, end, parent span, pass id)
in flat arrays that stay in memory until ``save``.  Self time is a span's
duration minus the durations of its direct children.  Counters that need
arguments or results (words seen, bytes read, dense cells) are gathered by
per-function hooks after the span closes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
import tracemalloc
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "vocab_bridge"
LAYERS = ("cli", "tokenizer", "embeddings", "dictionary", "alignment", "mixture", "expansion", "oov")
CLASSES = {"embeddings": ("Vocabulary", "EmbeddingMatrix"), "alignment": ("LinearMap",)}
SUBCOMMANDS = (
    "bpe-train", "bpe-apply", "wordpiece", "align-fit-joint", "align-fit-independent",
    "align-eval", "csls-nn", "mixture-build", "expand", "oov-stats", "compare-oov",
)
MB = 1e6

# self time of these functions is reported; ".calls" where marked
TIMED = {
    "alignment": ("csls_knn", "eval_precision_at_k", "unsupervised_score", "fit_joint_mapping",
                  "fit_independent_mapping", "procrustes_solve", "apply_map*", "load_map",
                  "save_map"),
    "mixture": ("build_all_assignments", "mixture_embedding*", "save_assignments",
                "load_assignments"),
    "tokenizer": ("bpe_train", "bpe_apply*", "wordpiece_segment*", "load_bpe_model"),
    "oov": ("corpus_oov_stats",),
    "embeddings": ("load_embeddings*", "save_embeddings", "normalize_rows*", "load_vocabulary",
                   "save_vocabulary"),
    "expansion": ("select_new_subwords", "expand_vocabulary", "emit_expanded"),
    "dictionary": ("load_dictionary",),
}
# counters: metric name -> unit
COUNTERS = {
    "alignment.csls.cells": "count",
    "alignment.csls.max_dense_mb": "MB",
    "mixture.build_all_assignments.tokens": "count",
    "tokenizer.bpe_train.merges": "count",
    "tokenizer.bpe_apply.distinct_words": "count",
    "tokenizer.wordpiece_segment.distinct_words": "count",
    "oov.corpus_oov_stats.words": "count",
    "oov.corpus_oov_stats.types": "count",
    "embeddings.load_embeddings.mb": "MB",
    "embeddings.save_embeddings.mb": "MB",
    "embeddings.normalize_rows.rows": "count",
    "expansion.emit_expanded.mb": "MB",
    "dictionary.load_dictionary.pairs": "count",
}
# rate metric -> (counter, span whose self time divides it, unit)
RATES = {
    "tokenizer.bpe_train.merges_per_s":
        ("tokenizer.bpe_train.merges", "tokenizer.bpe_train", "1/s"),
    "embeddings.load_embeddings.mb_per_s":
        ("embeddings.load_embeddings.mb", "embeddings.load_embeddings", "MB/s"),
    "embeddings.save_embeddings.mb_per_s":
        ("embeddings.save_embeddings.mb", "embeddings.save_embeddings", "MB/s"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module reports, with its unit."""
    units: dict[str, str] = {}
    for sub in SUBCOMMANDS:
        units[f"cli.{sub}.s"] = "s"
        units[f"cli.{sub}.peak_mb"] = "MB"
    for module, names in TIMED.items():
        for entry in names:
            name = entry.rstrip("*")
            units[f"{module}.{name}.s"] = "s"
            if entry.endswith("*"):
                units[f"{module}.{name}.calls"] = "count"
    units.update(COUNTERS)
    units.update({name: unit for name, (_, _, unit) in RATES.items()})
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    # pass-time figures of the traced run, computed by pipeline.py
    for name in ("pipeline_s", "untraced_pipeline_s", "overhead_s", "cli_sum_s"):
        units[f"trace.{name}"] = "s"
    return units


def _file_mb(path) -> float:
    return os.path.getsize(path) / MB


class Tracer:
    """Records spans and counters for the passes it is installed for."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._pass = array("q")
        self._stack: list[int] = []
        self.pass_id = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._distinct: dict[str, set] = defaultdict(set)
        self._corpus_sizes: dict[str, tuple[int, int]] = {}
        self.peaks: dict[str, float] = {}
        self.cli_steps: dict[int, list[float]] = defaultdict(list)
        self._signatures: dict[str, inspect.Signature] = {}
        self._patches = self._build_patches()

    # --- wrapping ------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._pass.append(self.pass_id)
        self._end.append(0)
        self._stack.append(idx)
        self._start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        opener, closer = self._open, self._close

        if hook is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = opener(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closer(idx)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = opener(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    closer(idx)
                hook(args, kwargs, result)
                return result
        return traced

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            if layer == "cli":
                continue
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and not inspect.isgeneratorfunction(fn)):
                    self._signatures[f"{layer}.{name}"] = inspect.signature(fn)
                    wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        patches = []
        for mod in [importlib.import_module(PACKAGE), *modules.values()]:
            for name, value in vars(mod).items():
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    patches.append((mod, name, value, wrapped[id(value)][1]))
        for layer, class_names in CLASSES.items():
            for cls_name in class_names:
                cls = getattr(modules[layer], cls_name)
                init = cls.__init__
                patches.append((cls, "__init__", init, self._wrap(init, f"{layer}.{cls_name}")))
        return patches

    def install(self) -> None:
        for owner, name, _, traced in self._patches:
            setattr(owner, name, traced)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # --- passes ----------------------------------------------------------
    def begin_pass(self, pass_id: int, memory: bool = False) -> None:
        """Start a span pass, or with ``memory`` a tracemalloc pass.

        The two are kept apart because tracemalloc slows every allocation,
        which would swell the self time of allocation-heavy layers.
        """
        self.pass_id = pass_id
        if memory:
            tracemalloc.start()
        else:
            self.install()

    def end_pass(self) -> None:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        else:
            self.uninstall()
        for key, words in self._distinct.items():
            self.counts[(self.pass_id, key)] = len(words)
        self._distinct.clear()

    def call_cli(self, subcommand: str, dispatch, argv) -> int:
        """Run one CLI invocation as an inclusive ``cli.<subcommand>`` span.

        In a tracemalloc pass the call's allocation peak above what was
        already allocated is kept, per subcommand.
        """
        memory = tracemalloc.is_tracing()
        if memory:
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
        idx = self._open(self._name_id(f"cli.{subcommand}"))
        try:
            return dispatch(argv)
        finally:
            self._close(idx)
            self.cli_steps[self.pass_id].append((self._end[idx] - self._start[idx]) / 1e9)
            if memory:
                peak = (tracemalloc.get_traced_memory()[1] - baseline) / MB
                self.peaks[subcommand] = max(self.peaks.get(subcommand, 0.0), peak)

    # --- hooks: counters that need arguments or results ------------------
    def _args(self, name: str, args, kwargs) -> dict:
        """Arguments of a call to ``name`` by parameter name, defaults included."""
        bound = self._signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _add(self, key: str, value: float) -> None:
        self.counts[(self.pass_id, key)] += value

    def _add_dense(self, cells: list[tuple[int, int]]) -> None:
        """Count the (rows, cols) float64 matrices a dense CSLS call builds."""
        self._add("alignment.csls.cells", sum(n * m for n, m in cells))
        key = (self.pass_id, "alignment.csls.max_dense_mb")
        self.counts[key] = max(self.counts[key], max(n * m for n, m in cells) * 8 / MB)

    def _hook_alignment_csls_knn(self, args, kwargs, result):
        b = self._args("alignment.csls_knn", args, kwargs)
        n, m = len(b["queries"]), len(b["targets"])
        # scores, query r-terms against targets, target r-terms against queries
        self._add_dense([(n, m), (n, m), (m, n)])

    def _hook_alignment_eval_precision_at_k(self, args, kwargs, result):
        b = self._args("alignment.eval_precision_at_k", args, kwargs)
        src, tgt = b["src"], b["tgt"]
        by_source = b["eval_dict"].targets_by_source()
        n = sum(1 for s, ts in by_source.items()
                if s in src.vocab and any(t in tgt.vocab for t in ts))
        self._add_dense([(n, len(tgt)), (n, len(tgt)), (len(tgt), len(src))])

    def _hook_alignment_unsupervised_score(self, args, kwargs, result):
        b = self._args("alignment.unsupervised_score", args, kwargs)
        n, m = min(b["sample"], len(b["src"])), len(b["tgt"])
        self._add_dense([(n, m), (n, m), (m, n)])

    def _hook_mixture_build_all_assignments(self, args, kwargs, result):
        b = self._args("mixture.build_all_assignments", args, kwargs)
        model_vocab, model_emb = b["model_vocab"], b["model_emb"]
        pool = sum(1 for t in b["english"].vocab.tokens if t in model_vocab and t in model_emb.vocab)
        n = len(b["new_tokens"])
        self._add("mixture.build_all_assignments.tokens", n)
        if n:
            self._add_dense([(n, pool), (n, pool), (pool, len(b["src"]))])

    def _hook_tokenizer_bpe_train(self, args, kwargs, result):
        self._add("tokenizer.bpe_train.merges", len(result.merges))

    # the two segmenters run once per word, so their hooks skip signature binding
    def _hook_tokenizer_bpe_apply(self, args, kwargs, result):
        self._distinct["tokenizer.bpe_apply.distinct_words"].add(
            args[1] if len(args) > 1 else kwargs["word"])

    def _hook_tokenizer_wordpiece_segment(self, args, kwargs, result):
        self._distinct["tokenizer.wordpiece_segment.distinct_words"].add(
            args[2] if len(args) > 2 else kwargs["word"])

    def _hook_oov_corpus_oov_stats(self, args, kwargs, result):
        lines = self._args("oov.corpus_oov_stats", args, kwargs)["lines"]
        path = getattr(lines, "name", None)
        if path is None:
            return
        if path not in self._corpus_sizes:  # computed from the file, once per run
            with open(path, encoding="utf-8") as fh:
                words = [w for line in fh for w in line.split()]
            self._corpus_sizes[path] = (len(words), len(set(words)))
        words, types = self._corpus_sizes[path]
        self._add("oov.corpus_oov_stats.words", words)
        self._add("oov.corpus_oov_stats.types", types)

    def _hook_embeddings_load_embeddings(self, args, kwargs, result):
        path = self._args("embeddings.load_embeddings", args, kwargs)["path"]
        self._add("embeddings.load_embeddings.mb", _file_mb(path))

    def _hook_embeddings_save_embeddings(self, args, kwargs, result):
        path = self._args("embeddings.save_embeddings", args, kwargs)["path"]
        self._add("embeddings.save_embeddings.mb", _file_mb(path))

    def _hook_embeddings_normalize_rows(self, args, kwargs, result):
        self._add("embeddings.normalize_rows.rows", len(result))

    def _hook_expansion_emit_expanded(self, args, kwargs, result):
        out_dir = Path(self._args("expansion.emit_expanded", args, kwargs)["out_dir"])
        self._add("expansion.emit_expanded.mb", sum(_file_mb(p) for p in out_dir.iterdir()))

    def _hook_dictionary_load_dictionary(self, args, kwargs, result):
        self._add("dictionary.load_dictionary.pairs", len(result))

    # --- results ----------------------------------------------------------
    def metrics(self, pass_ids: list[int]) -> dict[str, float]:
        """Per-layer metrics: medians over the traced passes ``pass_ids``."""
        n = len(self._start)
        start = np.frombuffer(self._start, dtype=np.int64)[:n]
        dur = (np.frombuffer(self._end, dtype=np.int64)[:n] - start) / 1e9
        parent = np.frombuffer(self._parent, dtype=np.int64)[:n]
        names = np.frombuffer(self._name, dtype=np.int64)[:n]
        passes = np.frombuffer(self._pass, dtype=np.int64)[:n]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child

        n_names, n_passes = len(self._names), int(passes.max()) + 1
        cell = names * n_passes + passes
        size = n_names * n_passes
        self_by = np.bincount(cell, weights=self_s, minlength=size).reshape(n_names, n_passes)
        incl_by = np.bincount(cell, weights=dur, minlength=size).reshape(n_names, n_passes)
        calls_by = np.bincount(cell, minlength=size).reshape(n_names, n_passes)

        def per_pass(table, name):
            if name not in self._name_ids:
                return [0.0] * len(pass_ids)
            row = table[self._name_ids[name]]
            return [float(row[p]) for p in pass_ids]

        def counter(key):
            return [float(self.counts.get((p, key), 0.0)) for p in pass_ids]

        out: dict[str, float] = {}
        for sub in SUBCOMMANDS:
            out[f"cli.{sub}.s"] = statistics.median(per_pass(incl_by, f"cli.{sub}"))
            out[f"cli.{sub}.peak_mb"] = self.peaks.get(sub, 0.0)
        for module, entries in TIMED.items():
            for entry in entries:
                name = f"{module}.{entry.rstrip('*')}"
                out[f"{name}.s"] = statistics.median(per_pass(self_by, name))
                if entry.endswith("*"):
                    out[f"{name}.calls"] = statistics.median(per_pass(calls_by, name))
        for key in COUNTERS:
            out[key] = statistics.median(counter(key))
        for key, (count_key, span, _) in RATES.items():
            ratios = [c / s if s > 0 else 0.0
                      for c, s in zip(counter(count_key), per_pass(self_by, span))]
            out[key] = statistics.median(ratios)
        layer_of = np.array([name.split(".", 1)[0] for name in self._names])
        for layer in LAYERS:
            rows = self_by[layer_of == layer][:, pass_ids]
            out[f"layer.{layer}.self_s"] = statistics.median(rows.sum(axis=0).tolist())
        return out

    def save(self, path: Path) -> None:
        """Write every span (and the name table) once the run is over."""
        n = len(self._start)
        np.savez(
            path,
            name=np.frombuffer(self._name, dtype=np.int64)[:n],
            start_ns=np.frombuffer(self._start, dtype=np.int64)[:n],
            end_ns=np.frombuffer(self._end, dtype=np.int64)[:n],
            parent=np.frombuffer(self._parent, dtype=np.int64)[:n],
            pass_id=np.frombuffer(self._pass, dtype=np.int64)[:n],
            names=np.array(json.dumps(self._names)),
        )

