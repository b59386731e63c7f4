"""Per-layer spans for the traced benchmark run.

Spans are recorded from the benchmark's side: each wrapper replaces the
binding that the calling code actually looks up at call time (a name that
``pipeline.py`` imported, a module global that ``multialign`` or
``embedding`` calls, a method on ``EmbeddingCache``, or an entry of the
pipeline's stage table), times the call, and counts it. Nothing in the
package is edited. Spans are inclusive: ``embedding.embed_segments_s``
contains the ``cache_get`` and ``hash_embed`` time spent inside it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

STAGES = ("ingest", "embed", "bialign", "multialign", "export")

# Spans that must record at least one call in every traced build; the
# cache-write spans only on a cold cache. A refactor that moves one of
# these calls would otherwise read as a speed-up of that layer.
EXPECTED_ALWAYS = tuple(f"pipeline.stage_{s}" for s in STAGES) + (
    "pipeline.load_alignments",
    "ingest.parse_volume",
    "ingest.build_chapter_groups",
    "model.save_corpus",
    "model.validate_corpus",
    "model.segment_index",
    "model.load_corpus",
    "embedding.cache_open",
    "embedding.cache_get",
    "embedding.embed_segments",
    "bialign.cost_matrix",
    "bialign.align_chapter",
    "multialign.align_group_consensus",
    "multialign.pivot_join",
    "multialign.consensus",
    "multialign.assemble_rows",
    "multialign.length_filter",
    "export.export_rows",
    "export.load_rows",
    "export.stats",
)
EXPECTED_COLD_ONLY = ("embedding.hash_embed", "embedding.cache_put", "embedding.cache_flush")


COUNTS = (
    "embedding.cache_hits",
    "embedding.cache_misses",
    "embedding.cache_index_bytes_written",
    "bialign.dp_cells",
    "multialign.direct_links",
    "multialign.consensus_links",
    "multialign.dropped_components",
    "multialign.length_filter_nulls",
)


def expected_spans(cold: bool) -> tuple[str, ...]:
    return EXPECTED_ALWAYS + (EXPECTED_COLD_ONLY if cold else ())


def _bytes_written() -> int:
    """Bytes this process has passed to write(2) so far (Linux /proc)."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


class Tracer:
    """Timers and counters around the package's layer boundaries.

    ``covered`` accumulates the wall time of outermost non-stage spans, so
    the build's wall time minus ``covered`` is the pipeline's own time.
    Hook work (counting links, reading /proc) runs outside every span and
    is kept in ``hook_s`` so it can be taken out of that self time.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.covered = 0.0
        self.hook_s = 0.0
        self._depth = 0
        self._patches: list = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn, stage=False, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                h0 = time.perf_counter()
                state = before(args, kwargs)
                tracer.hook_s += time.perf_counter() - h0
            outer = not stage and tracer._depth == 0
            if not stage:
                tracer._depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if not stage:
                    tracer._depth -= 1
                if outer:
                    tracer.covered += dt
                tracer.seconds[name] += dt
                tracer.calls[name] += 1
            if after is not None:
                h0 = time.perf_counter()
                after(args, kwargs, result, state)
                tracer.hook_s += time.perf_counter() - h0
            return result

        return wrapper

    def patch(self, owner, attr, name, **hooks):
        self.seconds[name] += 0.0
        self.calls[name] += 0
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(name, original, **hooks)
            self._patches.append(lambda: owner.__setitem__(attr, original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, **hooks))
            self._patches.append(lambda: setattr(owner, attr, original))

    def restore(self):
        while self._patches:
            self._patches.pop()()

    @contextmanager
    def installed(self):
        install(self)
        try:
            yield self
        finally:
            self.restore()

    # -- results --------------------------------------------------------

    def metrics(self, build_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}_s"] = self.seconds[name]
            out[f"{name}_calls"] = self.calls[name]
        out.update(self.counts)
        out["pipeline.self_s"] = build_s - self.covered - self.hook_s
        cells = self.counts["bialign.dp_cells"]
        out["bialign.ns_per_cell"] = self.seconds["bialign.align_chapter"] / cells * 1e9 if cells else 0.0
        return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the build path."""
    from polyalign import embedding, export, multialign, pipeline

    counts = tracer.counts
    for name in COUNTS:
        counts[name] = 0

    for stage in STAGES:
        tracer.patch(pipeline._STAGE_FNS, stage, f"pipeline.stage_{stage}", stage=True)
    tracer.patch(pipeline, "load_alignments", "pipeline.load_alignments")

    tracer.patch(pipeline, "parse_volume", "ingest.parse_volume")
    tracer.patch(pipeline, "build_chapter_groups", "ingest.build_chapter_groups")

    for fn in ("save_corpus", "validate_corpus", "segment_index", "load_corpus"):
        tracer.patch(pipeline, fn, f"model.{fn}")

    def count_get(args, kwargs, result, state):
        counts["embedding.cache_misses" if result is None else "embedding.cache_hits"] += 1

    def bytes_before(args, kwargs):
        return _bytes_written()

    def bytes_after(args, kwargs, result, before):
        counts["embedding.cache_index_bytes_written"] += _bytes_written() - before

    tracer.patch(embedding, "hash_embed", "embedding.hash_embed")
    cache = embedding.EmbeddingCache
    tracer.patch(cache, "__init__", "embedding.cache_open")
    tracer.patch(cache, "get", "embedding.cache_get", after=count_get)
    tracer.patch(cache, "put", "embedding.cache_put")
    tracer.patch(cache, "flush", "embedding.cache_flush", before=bytes_before, after=bytes_after)
    tracer.patch(pipeline, "embed_segments", "embedding.embed_segments")

    def count_dp(args, kwargs, result, state):
        n, m = args[0].shape
        counts["bialign.dp_cells"] += n * m

    tracer.patch(pipeline, "cost_matrix", "bialign.cost_matrix")
    tracer.patch(pipeline, "align_chapter", "bialign.align_chapter", after=count_dp)

    def count_direct(args, kwargs, result, state):
        pair_alignments = args[1]
        for (i, j), alignment in pair_alignments.items():
            if i < j:
                counts["multialign.direct_links"] += sum(
                    1 for l in alignment.links if l.src is not None and l.tgt is not None
                )

    def count_consensus(args, kwargs, result, state):
        counts["multialign.consensus_links"] += len(result.pairs)

    # align_group_consensus passes the pipeline's `dropped` list fourth.
    def dropped_before(args, kwargs):
        return len(args[3])

    def dropped_after(args, kwargs, result, before):
        counts["multialign.dropped_components"] += len(args[3]) - before

    def count_nulls(args, kwargs, result, state):
        row = args[0]
        counts["multialign.length_filter_nulls"] += sum(
            1 for idiom, seg in result.cells.items() if seg is None and row.cells.get(idiom) is not None
        )

    tracer.patch(pipeline, "align_group_consensus", "multialign.align_group_consensus", after=count_direct)
    tracer.patch(multialign, "pivot_join", "multialign.pivot_join")
    tracer.patch(multialign, "consensus", "multialign.consensus", after=count_consensus)
    tracer.patch(multialign, "assemble_rows", "multialign.assemble_rows", before=dropped_before, after=dropped_after)
    tracer.patch(pipeline, "length_filter", "multialign.length_filter", after=count_nulls)

    for fn in ("export_rows", "load_rows", "stats"):
        tracer.patch(export, fn, f"export.{fn}")


def missing_spans(calls: dict[str, int], cold: bool) -> list[str]:
    """Expected spans that recorded no call."""
    return [name for name in expected_spans(cold) if not calls.get(f"{name}_calls")]

