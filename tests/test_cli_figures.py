"""Tests of the figure-regeneration functions and the CLI."""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.campaigns import CampaignSpec, ResultStore, campaign_report, run_campaign
from repro.experiments import cli, fig3_data, fig4_data, table2_data
from repro.experiments.cli import available_experiments, main
from repro.metrics import format_table


def test_table2_matches_paper_layout():
    data = table2_data()
    assert data.headers == ["week day", "maximum", "minimum"]
    rows = {r[0]: (r[1], r[2]) for r in data.rows}
    assert rows["Sunday"] == (900.0, 400.0)
    assert rows["Tuesday"] == (1200.0, 500.0)
    assert len(data.rows) == 7


def test_fig3_model_curve_shape():
    data = fig3_data(bin_width=3600.0)
    curve = np.asarray(data.raw["model_rate"])
    assert curve.shape == (168,)
    # Troughs at midnights, peaks at noons, Tuesday peak = 1200.
    assert curve.min() >= 400.0
    assert curve.max() == pytest.approx(1200.0, rel=0.01)
    noon_tuesday = curve[24 + 12]
    assert noon_tuesday == pytest.approx(1200.0, rel=0.01)


def test_fig3_sampled_realization_close_to_model():
    data = fig3_data(bin_width=3600.0, sampled=True, seed=0)
    model = np.asarray(data.raw["model_rate"])
    realized = np.asarray(data.raw["realized_rate"])
    assert realized.shape == model.shape
    # Realized hourly rates track the model closely.  (The realized bin
    # averages a full hour of 60-s interval rates while the model curve
    # is sampled at the hour start, so a slope-dependent offset of up to
    # ~5 % is expected on the steep flanks of the sine.)
    rel_err = np.abs(realized - model) / model
    assert float(np.median(rel_err)) < 0.08


def test_fig4_realized_day():
    data = fig4_data(seed=0)
    times = np.asarray(data.raw["times"])
    realized = np.asarray(data.raw["realized_rate"])
    model = np.asarray(data.raw["model_rate"])
    peak_mask = (times >= 8 * 3600) & (times < 17 * 3600)
    # Peak hours are busier than off-peak on average.
    assert realized[peak_mask].mean() > 4 * realized[~peak_mask].mean()
    assert model[peak_mask].mean() > model[~peak_mask].mean()


def read_rows(path):
    """A written table as one ``{header: cell}`` dict per row."""
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_fluid_policy_comparison_rows(tmp_path, capsys):
    assert main(["run", "fig6-fluid", "--seeds", "0", "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "fig6-fluid.csv")
    names = [row["policy"] for row in rows]
    assert names == ["Adaptive", "Static-15", "Static-30", "Static-45", "Static-60", "Static-75"]
    adaptive = rows[0]
    assert adaptive["backend"] == "fluid"
    assert float(adaptive["max inst"]) > float(adaptive["min inst"])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for eid in available_experiments():
        assert eid in out


def test_cli_run_table2(capsys):
    assert main(["run", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Sunday" in out and "900" in out


def test_cli_run_writes_outputs(tmp_path, capsys):
    assert main(["run", "table2", "--out", str(tmp_path)]) == 0
    md = (tmp_path / "table2.md").read_text()
    csv_text = (tmp_path / "table2.csv").read_text()
    assert "| week day |" in md
    assert csv_text.splitlines()[0] == "week day,maximum,minimum"


def test_cli_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_cli_bad_seeds():
    with pytest.raises(SystemExit):
        main(["run", "fig4", "--seeds", "a,b"])


def test_cli_run_accepts_every_backend(tmp_path, capsys):
    argv = ["run", "fig5", "--quick", "--scale", "5000", "--seeds", "0"]
    assert main(argv + ["--backend", "des-vec", "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "fig5.csv")
    assert rows and {row["backend"] for row in rows} == {"des-vec"}
    assert "Adaptive" in capsys.readouterr().out


def test_cli_variant_ids_honour_run_flags(tmp_path, capsys):
    # fig6-fluid used to run seed 0 only and drop --trace/--metrics.
    from repro.obs.schema import load_trace, validate_trace

    traces, telemetry = tmp_path / "traces", tmp_path / "telemetry"
    argv = [
        "run", "fig6-fluid", "--seeds", "0-1",
        "--trace", f"{traces}/", "--metrics", f"{telemetry}/", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    files = sorted(traces.glob("*.jsonl"))
    assert len(files) == 2 * 6  # two seeds × (Adaptive + five Static-N)
    assert {f.stem.rsplit("-", 1)[1] for f in files} == {"s0", "s1"}
    for path in files:
        assert validate_trace(load_trace(path)) > 0
    assert len(list(telemetry.glob("*.jsonl"))) == len(files)
    assert (tmp_path / "fig6-fluid.csv").is_file()
    assert "Figure 6: scientific scenario (Grid Workloads Archive BoT), one day, fluid backend" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize(
    "argv",
    [["fig5", "--quick", "--scale", "5000", "--seeds", "0"], ["fig6-fluid", "--seeds", "0-1"]],
    ids=["fig5-quick-des", "fig6-fluid"],
)
def test_figure_ids_print_the_campaign_report(argv, tmp_path, capsys):
    # `repro run` prints the rows a stored campaign of the same spec
    # reports: the figure ids are campaign blocks, not a second path.
    assert main(["run", *argv]) == 0
    out = capsys.readouterr().out
    spec = cli._figure_spec(argv[0], cli._parser().parse_args(["run", *argv]))
    store = ResultStore(tmp_path / "store")
    assert not run_campaign(spec, store=store, workers=1).failed
    data = campaign_report(spec, store, ci=False)
    assert len(data.rows) == 6
    assert format_table(data.headers, data.rows, title=spec.description) in out


def test_paper_campaign_blocks_match_the_cli_blocks():
    # Each paper.toml block with `figure = X` is the block `repro run X`
    # builds for the block's seeds, so the campaign and the CLI cannot
    # drift apart.
    paper = CampaignSpec.load(Path(__file__).resolve().parent.parent / "campaigns" / "paper.toml")
    figures_seen = []
    for grid in paper.grids:
        seeds = ",".join(str(s) for s in grid.seeds)
        args = cli._parser().parse_args(["run", grid.figure, "--seeds", seeds])
        (cli_grid,) = cli._figure_spec(grid.figure, args).grids
        swapped = dataclasses.replace(grid, backends=cli_grid.backends)
        assert [c.key() for c in swapped.cells()] == [c.key() for c in cli_grid.cells()], grid.figure
        figures_seen.append(grid.figure)
    assert sorted(figures_seen) == ["fig5", "fig5-fullscale", "fig6", "fig6-fullscale"]
