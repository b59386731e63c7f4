"""Run timed corpus builds in a process of their own.

``bench/run.py`` starts this script after it has generated and written the
inputs, so that the peak resident memory reported here is the pipeline's
alone. It reads a JSON spec (paths, seconds, warm or cold, traced or not),
imports the package, builds, and writes a JSON result next to the spec.
The import is timed apart, in fresh processes, by ``run.py``.

Every build starts from a removed output directory, and a cold build also
from a removed cache directory; the removal and the hashing of the
artifacts happen outside the timed ``run_pipeline`` call.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time


def artifact_hashes(out_dir: str) -> dict[str, str]:
    """SHA-256 of every file the build left in ``out_dir`` but the manifest."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from polyalign.bialign import AlignConfig
    from polyalign.pipeline import PipelineConfig, run_pipeline

    config = PipelineConfig(
        raw_dir=spec["raw_dir"],
        mapping=spec["mapping"],
        cache_dir=spec["cache_dir"],
        out_dir=spec["out_dir"],
        dim=spec["dim"],
        align=AlignConfig(skip_cost=spec["skip_cost"]),
        workers=1,
    )

    def build(cold: bool, tracer=None) -> dict:
        shutil.rmtree(config.out_dir, ignore_errors=True)
        if cold:
            shutil.rmtree(config.cache_dir, ignore_errors=True)
        cpu0 = time.process_time()
        t = time.perf_counter()
        if tracer is None:
            manifest = run_pipeline(config)
        else:
            with tracer.installed():
                manifest = run_pipeline(config)
        build_s = time.perf_counter() - t
        record = {
            "build_s": build_s,
            "cpu_s": time.process_time() - cpu0,
            "traced": tracer is not None,
            "manifest": manifest["artifacts"],
            "files": artifact_hashes(config.out_dir),
        }
        if tracer is not None:
            record["layers"] = tracer.metrics(build_s)
        return record

    tracer_cls = None
    if spec["trace"]:
        from spans import Tracer as tracer_cls  # bench/spans.py, beside this file

    result = {"setup_build": None, "builds": []}
    if spec["warm"]:
        result["setup_build"] = build(cold=True)

    cold = not spec["warm"]
    start = time.perf_counter()
    while time.perf_counter() - start < spec["seconds"]:
        result["builds"].append(build(cold))
        if tracer_cls is not None:
            result["builds"].append(build(cold, tracer_cls()))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
