"""Benchmark of the whole vocab-bridge CLI pipeline, end to end and by layer.

Run from the repository root:

    python3 bench/run.py --workload retrieval --seed 1 --seconds 30 --trace 0

One run generates the workload's inputs from the seed (five times over:
the median is ``setup_s``, and the five copies must be byte-identical),
then starts ``pipeline.py`` in its own process to drive the 12 invocations
of a pass through ``vocab_bridge.cli.dispatch`` until ``--seconds`` of
passes are timed.  Outputs are checked afterwards, outside the timed region.
The last line of stdout is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``.  The
full record (environment, input properties, pass times, output hashes,
known failures) is written to ``results.json`` in the work directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("retrieval", "corpus", "model-io")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import vocab_bridge.cli; "
                "print(time.perf_counter() - t)")
END_TO_END_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "precision_at_1": "fraction",
    "unsupervised_score": "cosine",
    "word_oov_rate_after": "fraction",
    "subword_oov_rate_after": "fraction",
}

# invocation id -> output files it writes, relative to the output directory
OUTPUTS = {
    "bpe-train": ["lang.merges", "bpe_vocab.txt"],
    "bpe-apply": ["seg.txt"],
    "wordpiece": ["wp.tsv"],
    "align-fit-joint": ["b.map", "a.map"],
    "align-fit-independent": ["direct.map"],
    "align-eval": [],
    "csls-nn": ["audit.tsv"],
    "mixture-build": ["assignments.tsv"],
    "expand": ["expanded/vocab.txt", "expanded/embeddings.vec", "expanded/provenance.tsv"],
    "oov-stats-before": ["before.tsv"],
    "oov-stats-after": ["after.tsv"],
    "compare-oov": [],
}


def build_plan(inp: Path, out: Path, bpe_vocab_size: int) -> dict:
    """The 12 invocations of one pass, in pipeline order."""
    def i(name):
        return str(inp / name)

    def o(name):
        return str(out / name)

    model = ["--bert-emb", i("model.vec"), "--bert-vocab", i("model_vocab.txt")]
    invocations = [
        ("bpe-train", ["bpe-train", "--corpus", i("train.txt"), "--vocab-size", str(bpe_vocab_size),
                       "--out", o("lang.merges"), "--vocab-out", o("bpe_vocab.txt")]),
        ("bpe-apply", ["bpe-apply", "--merges", o("lang.merges"), "--input", i("test.txt"),
                       "--wordpiece-style", "--output", o("seg.txt")]),
        ("wordpiece", ["wordpiece", "--vocab", i("model_vocab.txt"), "--input", i("test.txt"),
                       "--output", o("wp.tsv")]),
        ("align-fit-joint", ["align-fit-joint", "--src-emb", i("lang.vec"), "--en-emb", i("en.vec"),
                             *model, "--dict", i("train.dict"),
                             "--out-b", o("b.map"), "--out-a", o("a.map")]),
        ("align-fit-independent", ["align-fit-independent", "--src-emb", i("lang.vec"),
                                   "--bert-emb", i("model.vec"), "--out", o("direct.map")]),
        ("align-eval", ["align-eval", "--src-emb", i("lang.vec"), "--tgt-emb", i("en.vec"),
                        "--map", o("b.map"), "--dict", i("eval.dict"), "--eval-k", "1"]),
        ("csls-nn", ["csls-nn", "--queries", i("lang.vec"), "--targets", i("en.vec"),
                     "--map", o("b.map"), "--top", "5", "--softmax", "--out", o("audit.tsv")]),
        ("mixture-build", ["mixture-build", "--src-emb", i("lang.vec"), "--b-map", o("b.map"),
                           "--en-emb", i("en.vec"), *model, "--out", o("assignments.tsv")]),
        ("expand", ["expand", *model, "--lang-vocab", i("lang_vocab.txt"), "--strategy", "mixture",
                    "--assignments", o("assignments.tsv"), "--out-dir", o("expanded")]),
        ("oov-stats-before", ["oov-stats", "--vocab", i("model_vocab.txt"), "--corpus", i("test.txt"),
                              "--tsv", "--out", o("before.tsv")]),
        ("oov-stats-after", ["oov-stats", "--vocab", o("expanded/vocab.txt"),
                             "--corpus", i("test.txt"), "--tsv", "--out", o("after.tsv")]),
        ("compare-oov", ["compare-oov", "--before", o("before.tsv"), "--after", o("after.tsv")]),
    ]
    return {"invocations": invocations, "outputs": OUTPUTS, "out_dir": str(out),
            "probe": i("fasttext_trailing_space.vec")}


def cap_threads() -> int:
    """Pin BLAS/OpenMP pools to one thread; call before numpy loads.

    The pipeline is one client running mostly single-threaded Python.  With
    a second OpenBLAS thread, the idle helper spins on the other CPU after
    each BLAS call; on a 2-CPU host that made passes about 40% slower and
    their times erratic.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def environment(threads: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "page_cache": "warm: inputs are read back right after they are written, "
                      "and the file cache is not dropped",
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Runs too short to put that percentile above the median report the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * (TAIL_BEYOND + 1):
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def count_failures(plan: dict, passes: list[dict], check_failures: dict) -> tuple[int, int]:
    """(attempted, failed) invocations over every pass, the warm-up included.

    An invocation fails when it exits nonzero, when its outputs fail a check
    on the last pass, or when they differ from the last pass's bytes.
    """
    final = passes[-1]["hashes"]
    attempted = failed = 0
    for record in passes:
        for (inv, _), code in zip(plan["invocations"], record["codes"]):
            files = [f"stdout/{inv}.txt", *plan["outputs"][inv]]
            attempted += 1
            failed += bool(code != 0 or inv in check_failures
                           or any(record["hashes"][f] != final[f] for f in files))
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="timed pass time to collect")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes run in seconds, for the harness smoke test")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".bench_work")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    src = ROOT / "src"
    if not (src / "vocab_bridge" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    threads = cap_threads()
    import checks
    import generate
    import spans

    work = args.work_dir / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inp, out = work / "inputs", work / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    setup_samples, digests = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        properties, expect = generate.write_workload(args.workload, args.seed, inp, args.size)
        generate_s = time.perf_counter() - t0
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               capture_output=True, text=True, timeout=60, check=True)
        setup_samples.append(generate_s + float(probe.stdout))
        digests.append(generate.digest(properties))

    plan = build_plan(inp, out, properties["bpe_vocab_size"])
    plan_path, result_path = work / "plan.json", work / "pipeline.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    child = subprocess.run(
        [sys.executable, str(BENCH_DIR / "pipeline.py"), "--plan", str(plan_path),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_path)],
        env=env, capture_output=True, text=True,
        timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)),
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        print(f"error: pipeline process exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))

    stdouts = {inv: (out / "stdout" / f"{inv}.txt").read_text(encoding="utf-8")
               for inv, _ in plan["invocations"]}
    check_failures = checks.run_checks(inp, out, expect, stdouts)
    attempted, failed = count_failures(plan, result["passes"], check_failures)
    same_inputs = len(set(digests)) == 1

    timed = result["timed_seconds"]
    tail_s, tail_pct = tail(timed)
    quality = {}
    try:
        quality.update(checks.parse_align_eval(stdouts["align-eval"]))
        after = checks.parse_oov_tsv(out / "after.tsv")
        quality["word_oov_rate_after"] = after["word_oov_rate"]
        quality["subword_oov_rate_after"] = after["subword_oov_rate"]
    except (OSError, KeyError, ValueError, IndexError):
        pass  # a failed check already counts these invocations
    if args.trace:
        values = result["per_layer"]
        units = spans.metric_units()
    else:
        values = {
            "pipeline_s": result["pipeline_s"],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": result["maxrss_mb"],
            **quality,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    correct = failed == 0 and same_inputs and len(metrics) == len(units)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "load": "closed loop, one client: passes back to back, invocations in sequence",
        "environment": environment(threads),
        "inputs": properties,
        "same_seed_inputs_identical": same_inputs,
        "setup_samples_s": setup_samples,
        "import_s": result["import_s"],
        "pass_seconds": timed,
        "envelope_s": result["envelope_s"],
        "calibration_s": result["calibration_s"],
        "pass_fastest_s": min(timed),
        "pass_median_s": statistics.median(timed),
        "pass_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "attempted": attempted, "failed": failed,
        "failed_ops": failed / attempted,
        "check_failures": check_failures,
        "exit_errors": {k: v for p in result["passes"] for k, v in p["stderr"].items()},
        "known_failures": {"fasttext_trailing_space": result["probe"]},
        "output_sha256": result["passes"][-1]["hashes"],
        "metrics": metrics,
    }
    (work / "results.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    env_line = record["environment"]
    print(f"environment: {env_line['cpu']}, {env_line['nproc']} CPUs, BLAS threads "
          f"{threads}, Python {env_line['python']}, numpy {env_line['numpy']}, {env_line['blas']}; "
          f"{env_line['page_cache']}")
    print(f"passes: {len(timed)} timed; every invocation at its fastest "
          f"{result['envelope_s']:.4f} s (calibration at its fastest "
          f"{min(result['calibration_s']) * 1e3:.2f} ms); fastest pass {min(timed):.4f} s, median "
          f"{statistics.median(timed):.4f} s, p{tail_pct:.1f} {tail_s:.4f} s; "
          f"failed_ops {failed}/{attempted}")
    for inv, message in check_failures.items():
        print(f"check failed: {inv}: {message}")
    if not same_inputs:
        print("check failed: the same seed gave different inputs")
    probe = result["probe"]
    print("known failure fasttext_trailing_space: "
          + (probe["error"] if not probe["loads"] else "now loads"))
    print(f"record: {work / 'results.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
