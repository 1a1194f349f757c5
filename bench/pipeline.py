"""Run the vocab-bridge CLI pipeline pass after pass and report timings.

``run.py`` starts this in a process of its own, so that the peak RSS it
reports covers the pipeline alone and not the input generator.  The plan
file names the invocations (one pass) and the files each one writes.  The
first pass warms caches and is not timed; timed passes follow, one client
in a closed loop, until their summed time reaches ``--seconds``.  Between
passes, outside the timed region, every output file is hashed and a fixed
calibration workload is timed.  With ``--trace 1`` untraced and traced
passes alternate, the traced ones record spans (see ``spans.py``), and one
last pass under tracemalloc takes each subcommand's allocation peak.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 11  # a tail percentile needs ten samples beyond it
WALL_LIMIT_S = 120.0  # stop starting passes after this, however slow they are
# roughly the calibration's fastest time on an undisturbed 2-CPU Xeon host,
# so that calibrated figures stay close to seconds there
CALIBRATION_NOMINAL_S = 0.008
CALIBRATIONS_PER_PASS = 3


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    except FileNotFoundError:
        return "missing"
    return h.hexdigest()


def calibration_seconds() -> float:
    """Time of a fixed piece of work that uses nothing from the package.

    It mixes interpreter work with a numpy sort, as the pipeline does, so a
    host that is slowed by other tenants slows it by a like factor.
    """
    import numpy as np

    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(20000):
        key = str(i * 7919)[:4]
        counts[key] = counts.get(key, 0) + 1
    np.sort(np.arange(150000, dtype=np.float64) % 977)
    return time.perf_counter() - start


def run_pass(cli, plan: dict, out_dir: Path, tracer=None) -> dict:
    """One pass of every planned invocation, timed as a whole."""
    for files in plan["outputs"].values():
        for name in files:
            (out_dir / name).unlink(missing_ok=True)
    codes, stdouts, stderrs, marks = [], [], [], []
    start = time.perf_counter()
    for inv, argv in plan["invocations"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.dispatch(argv)
                else:
                    code = tracer.call_cli(argv[0], cli.dispatch, argv)
            except Exception:  # a crash is one failed invocation, not the end of the run
                traceback.print_exc()
                code = -1
        marks.append(time.perf_counter())
        codes.append(code)
        stdouts.append(out.getvalue())
        stderrs.append(err.getvalue())
    seconds = marks[-1] - start
    steps = [b - a for a, b in zip([start, *marks], marks)]

    stdout_dir = out_dir / "stdout"
    stdout_dir.mkdir(exist_ok=True)
    hashes = {}
    for (inv, _), text in zip(plan["invocations"], stdouts):
        (stdout_dir / f"{inv}.txt").write_text(text, encoding="utf-8")
        hashes[f"stdout/{inv}.txt"] = _sha256(stdout_dir / f"{inv}.txt")
        for name in plan["outputs"].get(inv, []):
            hashes[name] = _sha256(out_dir / name)
    return {
        "seconds": seconds,
        "steps": steps,
        "codes": codes,
        "hashes": hashes,
        "stderr": {inv: err[-2000:] for (inv, _), err, code
                   in zip(plan["invocations"], stderrs, codes) if code != 0},
    }


def lower_envelope(passes: list[dict]) -> float:
    """Sum over the invocations of each one's fastest time across ``passes``.

    Other tenants of a shared host only ever slow an invocation down, and
    they come and go within seconds, so each invocation's fastest time is
    its undisturbed cost.
    """
    return sum(min(times) for times in zip(*(p["steps"] for p in passes)))


def calibrated(seconds: float, calibration_min: float) -> float:
    """``seconds`` on a host where the calibration takes CALIBRATION_NOMINAL_S.

    A host that stays slow for a whole run slows the calibration's fastest
    time as much as the pipeline's, so the ratio holds across runs.
    """
    return seconds * CALIBRATION_NOMINAL_S / calibration_min


def probe_trailing_space(path: Path) -> dict:
    """Load the fastText-style probe; a known failure is reported, not counted."""
    from vocab_bridge import embeddings
    from vocab_bridge.errors import VocabBridgeError

    try:
        emb = embeddings.load_embeddings(path)
    except VocabBridgeError as exc:
        return {"loads": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"loads": True, "rows": len(emb)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    plan = json.loads(args.plan.read_text(encoding="utf-8"))
    out_dir = Path(plan["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "expanded").mkdir(exist_ok=True)

    t0 = time.perf_counter()
    from vocab_bridge import cli
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()

    wall_start = time.perf_counter()
    passes = [run_pass(cli, plan, out_dir)]  # warm-up, not timed
    timed, traced, untraced, calibration = [], {}, [], []
    while (sum(p["seconds"] for p in timed) < args.seconds or len(timed) < MIN_PASSES) \
            and time.perf_counter() - wall_start < WALL_LIMIT_S:
        pass_id = len(passes)
        calibration += [calibration_seconds() for _ in range(CALIBRATIONS_PER_PASS)]
        if tracer is not None and len(timed) % 2 == 1:
            tracer.begin_pass(pass_id)
            try:
                record = run_pass(cli, plan, out_dir, tracer)
            finally:
                tracer.end_pass()
            traced[pass_id] = record
        else:
            record = run_pass(cli, plan, out_dir)
            untraced.append(record)
        passes.append(record)
        timed.append(record)

    calibration.append(calibration_seconds())
    cal_min = min(calibration)

    if tracer is not None:  # allocation peaks, outside the timed passes
        tracer.begin_pass(len(passes), memory=True)
        try:
            passes.append(run_pass(cli, plan, out_dir, tracer))
        finally:
            tracer.end_pass()

    envelope_s = lower_envelope(untraced)
    result = {
        "import_s": import_s,
        "passes": passes,
        "timed_seconds": [p["seconds"] for p in timed],
        "envelope_s": envelope_s,
        "pipeline_s": calibrated(envelope_s, cal_min),
        "calibration_s": calibration,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "probe": probe_trailing_space(Path(plan["probe"])),
    }
    if tracer is not None:
        layers = tracer.metrics(list(traced))
        layers["trace.pipeline_s"] = calibrated(lower_envelope(list(traced.values())), cal_min)
        layers["trace.untraced_pipeline_s"] = result["pipeline_s"]
        layers["trace.overhead_s"] = layers["trace.pipeline_s"] - result["pipeline_s"]
        layers["trace.cli_sum_s"] = calibrated(lower_envelope(
            [{"steps": tracer.cli_steps[pass_id]} for pass_id in traced]), cal_min)
        result["per_layer"] = layers
        tracer.save(out_dir.parent / "spans.npz")
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
