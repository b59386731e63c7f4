"""Command-line interface: the full pipeline plus one subcommand per stage.

The stage subcommands run the pipeline's own stage functions on the files
their flags name, with every setting read from the config file that ``run``
takes; ``_stage_inputs`` and ``_row_inputs`` declare and load the inputs they
share. Every command writes through ``committing``, as ``run`` does, so a
failed command leaves the file it was to replace as it was, and a file that
cannot be made is named as the user gave it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os

import click

from . import __version__
from .evaluate import load_gold, multi_prf
from .export import (
    export_bitext,
    export_rows,
    load_rows,
    render_stats,
    sample_rows,
    split_rows,
    stats,
    write_sheet,
)
from .model import CORPUS_FORMAT, PolyalignError, load_corpus, load_json_object, parse_pair, segment_index, write_json
from .pipeline import (
    align_pairs,
    build_rows,
    committing,
    corpus_groups,
    ingest_raw,
    load_config,
    run_pipeline,
    stage_embed,
)


class _Main(click.Group):
    """Report the package's own errors, and a file that cannot be opened or
    made, as a one-line error with exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (PolyalignError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.version_option(__version__, message=f"polyalign %(version)s ({CORPUS_FORMAT})")
def main():
    """Multi-parallel segment alignment toolkit."""


# Every setting comes from this one file: `run` and the stage commands read it alike.
_config_option = click.option("--config", "config_path", required=True, type=click.Path(exists=True))


def _stage_inputs(command):
    """Declare ``--config``, ``--corpus`` and ``--mapping`` ahead of the command's own
    options, and call it with the loaded config and the corpus's chapter groups."""
    @_config_option
    @click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
    @click.option("--mapping", required=True, type=click.Path(exists=True))
    @functools.wraps(command)
    def load(config_path, corpus_path, mapping, **options):
        return command(load_config(config_path), corpus_groups(corpus_path, mapping)[1], **options)
    return load


def _row_inputs(command):
    """Declare ``--rows`` and ``--corpus`` ahead of the command's own options, and call
    it with the corpus's volumes and the rows, checked against them."""
    @click.option("--rows", "rows_path", required=True, type=click.Path(exists=True))
    @click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
    @functools.wraps(command)
    def load(rows_path, corpus_path, **options):
        volumes = load_corpus(corpus_path)
        return command(volumes, load_rows(rows_path, segment_index(volumes)), **options)
    return load


@main.command()
@_config_option
def run(config_path):
    """Run the whole pipeline from a config file."""
    click.echo(json.dumps(run_pipeline(load_config(config_path))["stages"], indent=1))


@main.command()
@click.option("--raw-dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--mapping", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--report", "report_path", required=True, type=click.Path())
def ingest(raw_dir, mapping, out_path, report_path):
    """Parse raw volumes, segment HTML, build chapter groups."""
    with committing() as out:
        counts = ingest_raw(raw_dir, mapping, out(out_path), out(report_path))
    click.echo(f"{counts['volumes']} volumes, {counts['chapter_groups']} chapter groups, {counts['warnings']} warnings")


@main.command()
@_stage_inputs
def embed(config, groups):
    """Embed the segments of every grouped chapter through the on-disk cache."""
    counts = stage_embed(config, None, groups)
    click.echo(f"embedded {counts['segments_embedded']} segments into {config.cache_dir}")


@main.command()
@_stage_inputs
@click.option("--pair", default="all", help="SRC:TGT idiom pair, or 'all'.",
              callback=lambda _ctx, _param, pair: None if pair == "all" else parse_pair(pair))
@click.option("--out", "out_path", required=True, type=click.Path())
def bialign(config, groups, pair, out_path):
    """Align chapter pairs with the monotone 1-1/deletion DP."""
    with committing() as out:
        counts = align_pairs(groups, out(out_path), config, pair)
    click.echo(f"aligned {counts['chapter_pairs']} chapter pairs -> {out_path}")


@main.command()
@_stage_inputs
@click.option("--alignments", "alignments_path", required=True, type=click.Path(exists=True))
@click.option("--pivot", default="all", help="'all' for consensus, or one pivot idiom.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--no-length-filter", is_flag=True, default=False)
def multialign(config, groups, alignments_path, pivot, out_path, no_length_filter):
    """Build multi-parallel rows by consensus (or one pivot's join)."""
    with committing() as out:
        counts = build_rows(groups, alignments_path, out(out_path),
                            None if no_length_filter else config.length_filter, None if pivot == "all" else pivot)
    click.echo(f"{counts['rows']} aligned rows, {counts['dropped_components']} dropped components")


@main.command()
@click.option("--hyp", "hyp_path", required=True, type=click.Path(exists=True))
@click.option("--gold", "gold_path", required=True, type=click.Path(exists=True))
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--report", "report_path", required=True, type=click.Path())
def evaluate(hyp_path, gold_path, corpus_path, report_path):
    """Strict precision/recall/F1 of hypothesis rows against gold rows."""
    seg_index = segment_index(load_corpus(corpus_path))
    table, macro = multi_prf(load_rows(hyp_path, seg_index), load_gold(gold_path, seg_index))
    report = {
        "pairs": {f"{a}-{b}": dataclasses.asdict(s) for (a, b), s in sorted(table.items())},
        "macro": dataclasses.asdict(macro),
    }
    with committing() as out:
        write_json(report, out(report_path))
    click.echo(f"macro P/R/F1 = {macro.precision:.3f}/{macro.recall:.3f}/{macro.f1:.3f}")


@main.group()
def export():
    """Emit row files, bitext, statistics, splits, sample sheets."""


@export.command("rows")
@_row_inputs
@click.option("--out", "out_path", required=True, type=click.Path())
def export_rows_cmd(volumes, rows, out_path):
    """Re-emit rows in file order after validating references."""
    with committing() as out:
        n = export_rows(rows, out(out_path))
    click.echo(f"wrote {n} rows")


@export.command("bitext")
@_row_inputs
@click.option("--pair", required=True, help="SRC:TGT idiom pair.",
              callback=lambda _ctx, _param, pair: parse_pair(pair))
@click.option("--out", "out_path", required=True, type=click.Path())
def export_bitext_cmd(volumes, rows, pair, out_path):
    """Two-column TSV for one idiom pair."""
    with committing() as out:
        n = export_bitext(volumes, rows, *pair, out(out_path))
    click.echo(f"wrote {n} bitext lines")


@export.command("stats")
@_row_inputs
@click.option("--out", "out_path", default=None, type=click.Path())
def export_stats_cmd(volumes, rows, out_path):
    """Corpus statistics table (overall vs aligned)."""
    report = stats(volumes, rows)
    if out_path:
        with committing() as out:
            write_json(report, out(out_path))
    click.echo(render_stats(report), nl=False)


@export.command("split")
@_row_inputs
@click.option("--splits", "splits_path", required=True, type=click.Path(exists=True),
              help="JSON file mapping volume_id to train/validation/test/extra.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def export_split_cmd(volumes, rows, splits_path, out_dir):
    """Partition rows into per-split files by volume assignment."""
    assignment = load_json_object(splits_path)
    conflicts = []
    try:
        parts = split_rows(rows, assignment, conflicts)
    except PolyalignError as exc:
        raise PolyalignError(f"{splits_path}: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    with committing(out_dir) as out:
        for name, part in parts.items():
            export_rows(part, out(f"{name}.jsonl"))
        with open(out("conflicts.jsonl"), "w", encoding="utf-8") as fh:
            for c in conflicts:
                fh.write(json.dumps(c) + "\n")
    click.echo(", ".join(f"{name}: {len(part)}" for name, part in parts.items()) + f", conflicts: {len(conflicts)}")


@export.command("sample")
@_row_inputs
@click.option("--n", "n", required=True, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
def export_sample_cmd(volumes, rows, n, seed, out_path):
    """Random evaluation sheet of n rows (seeded, reproducible)."""
    header, sheet = sample_rows(rows, n, seed)
    with committing() as out:
        write_sheet(header, sheet, out(out_path))
    click.echo(f"wrote sheet with {len(sheet)} rows")


if __name__ == "__main__":
    main()
