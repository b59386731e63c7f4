"""Benchmark of polyalign's corpus build, end to end and per layer.

    python3 bench/run.py --workload cold-paper --seed 0 --seconds 20 --trace 0

Run from the repository root. The workload's inputs are generated from
``--seed`` by ``tests/synth.generate`` and checked against their fingerprint
(``bench/inputs.py``); a separate process (``bench/worker.py``) then imports
the package and times ``run_pipeline`` builds for ``--seconds`` seconds. Every
build's outputs are checked (``bench/checks.py``) once the worker has ended.
With ``--trace 1`` each round is one untraced and one traced build, and the
per-layer metrics come from the traced ones (``bench/spans.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = {  # name -> (corpus shape, build over a filled cache)
    "cold-paper": ("paper", False),
    "warm-paper": ("paper", True),
    "warm-long": ("long", True),
}
DIM = 256
SKIP_COST = 0.15
IMPORT_PROBES = 9
TIME_LIMIT_S = 170
# One numeric-library thread: OpenBLAS's helper threads otherwise spin
# beside the single-threaded DP and add CPU time that varies run to run.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import polyalign.pipeline\n"
    "print(time.perf_counter() - t)\n"
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def median_import_s(env: dict) -> float:
    """Median wall time of ``import polyalign.pipeline`` in fresh processes."""
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def allocated_mb(directory: str) -> float:
    """Disk space allocated to the files under ``directory``, in MB."""
    total = 0
    for parent, _dirs, files in os.walk(directory):
        for name in files:
            total += os.stat(os.path.join(parent, name)).st_blocks * 512
    return total / 1e6


def text_vectors(corpus_path: str):
    """segment id -> the package's hash embedding of the segment's text."""
    from polyalign.embedding import hash_embed

    with open(corpus_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    texts = {s["id"]: s["text"] for v in doc["volumes"] for c in v["chapters"] for s in c["segments"]}
    memo: dict[str, object] = {}

    def vector_of(segment_id: str):
        text = texts[segment_id]
        if text not in memo:
            memo[text] = hash_embed(text, DIM)
        return memo[text]

    return vector_of


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    for needed in ("src/polyalign/pipeline.py", "tests/synth.py", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"run from a polyalign checkout: {needed} is missing")
            return 2
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
    import checks
    import inputs
    from spans import missing_spans
    from worker import artifact_hashes

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    shape, warm = WORKLOADS[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "raw"))
    corpus = inputs.generate(shape, args.seed)
    for name, doc in corpus.raw_docs.items():
        with open(os.path.join(work, "raw", name), "w", encoding="utf-8") as fh:
            fh.write(doc)
    with open(os.path.join(work, "mapping.tsv"), "w", encoding="utf-8") as fh:
        fh.write(corpus.mapping_tsv)
    segments = inputs.fingerprint(corpus)["segments"]

    env = {**os.environ, **THREAD_ENV}
    import_s = median_import_s(env)

    spec = {
        "src": SRC,
        "raw_dir": os.path.join(work, "raw"),
        "mapping": os.path.join(work, "mapping.tsv"),
        "cache_dir": os.path.join(work, "cache"),
        "out_dir": os.path.join(work, "out"),
        "dim": DIM,
        "skip_cost": SKIP_COST,
        "seconds": args.seconds,
        "warm": warm,
        "trace": bool(args.trace),
        "result": os.path.join(work, "result.json"),
    }
    with open(os.path.join(work, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(work, "spec.json")],
        env=env, timeout=TIME_LIMIT_S - (time.perf_counter() - started), check=True,
    )
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    builds = result["builds"]

    # Checks, outside every timed region.
    final = artifact_hashes(spec["out_dir"])
    reference = result["setup_build"]["files"] if warm else None
    verdicts = checks.check_hashes(builds, final, reference)
    content_error = None
    try:
        prf = checks.check_outputs(
            spec["out_dir"], corpus, text_vectors(os.path.join(spec["out_dir"], "corpus.json")), SKIP_COST
        )
    except checks.CheckError as exc:
        content_error = str(exc)
        prf = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    for n, why in enumerate(verdicts):
        if why or content_error:
            log(f"build {n} failed its check: {why or content_error}")
    failed = sum(1 for why in verdicts if why or content_error)

    untraced = [b for b in builds if not b["traced"]]
    build_s = statistics.median(b["build_s"] for b in untraced)
    values = {
        "build_s": build_s,
        "segments_per_s": segments / build_s,
        "setup_s": import_s + (result["setup_build"]["build_s"] if warm else 0.0),
        "peak_rss_mb": result["peak_rss_mb"],
        "cache_disk_mb": allocated_mb(spec["cache_dir"]),
        "macro_precision": prf["precision"],
        "macro_recall": prf["recall"],
        "macro_f1": prf["f1"],
    }
    for key in ("build_s", "setup_s", "peak_rss_mb", "cache_disk_mb", "macro_recall"):
        log(f"{args.workload} seed={args.seed}: {key}={values[key]:.4f}")
    wanted = bench["end_to_end"]
    if args.trace:
        traced = [b for b in builds if b["traced"]]
        for b in traced:
            missing = missing_spans(b["layers"], cold=not warm)
            if missing:
                log(f"traced build recorded no call for expected spans: {', '.join(missing)}")
                return 3
        values = {key: statistics.median(b["layers"][key] for b in traced) for key in traced[0]["layers"]}
        values["embedding.cache_gets_per_segment"] = values["embedding.cache_get_calls"] / segments
        values["process.cpu_s"] = statistics.median(b["cpu_s"] for b in untraced)
        values["trace.overhead_s"] = statistics.median(b["build_s"] for b in traced) - build_s
        wanted = bench["per_layer"]

    print(json.dumps({
        "correct": content_error is None,
        "attempted": len(builds),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
