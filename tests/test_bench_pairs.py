"""The summary arithmetic of ``scripts/bench_pairs.py`` on fixed inputs, and its ``--seed``."""

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import bench_pairs  # noqa: E402


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    parent, change = [1.4, 1.5, 1.3, 1.2], [1.2, 1.5, 1.4, 1.1]
    assert bench_pairs.wins(parent, change, "lower") == (1, 2)
    assert bench_pairs.wins(parent, change, "higher") == (2, 1)
    with pytest.raises(ValueError):
        bench_pairs.wins(parent, change[:3], "lower")


def test_summary_rows():
    runs = [{"parent": {"wall_rel": p, "setup_s": 0.16}, "change": {"wall_rel": c, "setup_s": 0.16}}
            for p, c in [(1.40, 1.23), (1.42, 1.27), (1.53, 1.29), (1.41, 1.26), (1.45, 1.45)]]
    metrics = [{"name": "wall_rel", "better": "lower"}, {"name": "setup_s", "better": "lower"},
               {"name": "peak_rss_mb", "better": "lower"}]
    wall, setup = bench_pairs.summarize(runs, metrics)   # no run reports peak_rss_mb
    assert wall["parent"] == (1.41, 1.42, 1.45) and wall["change"] == (1.26, 1.27, 1.29)
    assert wall["median_diff"] == pytest.approx(-0.15) and wall["parent_iqr"] == pytest.approx(0.04)
    assert (wall["parent_wins"], wall["change_wins"]) == (0, 4)
    assert (setup["parent_wins"], setup["change_wins"]) == (0, 0)
    table = bench_pairs.format_rows([wall, setup], pairs=5)
    assert "| wall_rel (lower) | 1.41 / 1.42 / 1.45 | 1.26 / 1.27 / 1.29 | -0.15 (0.04) | 0 / 4 | no |" in table
    assert "warning: 5 pairs, fewer than 10: no claimed gain can rest on this run" in table


def _rows(parent, change, better="lower"):
    runs = [{"parent": {"wall_rel": p}, "change": {"wall_rel": c}} for p, c in zip(parent, change)]
    return bench_pairs.summarize(runs, [{"name": "wall_rel", "better": better}])


@pytest.mark.parametrize("parent, change, better, holds", [
    # 10 of 10 wins, median 0.2 lower against a parent IQR of about 0.05
    ([1.80 + 0.01 * i for i in range(10)], [1.60 + 0.01 * i for i in range(10)], "lower", True),
    # 9 of 10 wins: the last pair is a tie, which counts for neither side
    ([1.80 + 0.01 * i for i in range(10)], [1.60 + 0.01 * i for i in range(9)] + [1.89], "lower", True),
    # 8 of 10 wins: too few, however far the median moved
    ([1.80 + 0.01 * i for i in range(10)], [1.60 + 0.01 * i for i in range(8)] + [1.90, 1.95], "lower", False),
    # 10 of 10 wins by 0.001, inside the parent's IQR
    ([1.80 + 0.01 * i for i in range(10)], [1.799 + 0.01 * i for i in range(10)], "lower", False),
    # a higher-is-better metric: the same rule, mirrored
    ([100.0 + i for i in range(10)], [120.0 + i for i in range(10)], "higher", True),
    ([100.0 + i for i in range(10)], [80.0 + i for i in range(10)], "higher", False),
])
def test_gain_needs_nine_tenths_of_the_pairs_and_a_median_past_the_parent_iqr(parent, change, better, holds):
    (row,) = _rows(parent, change, better)
    assert row["gain"] is holds
    table = bench_pairs.format_rows([row], pairs=10)
    assert table.splitlines()[2].endswith(f"| {'yes' if holds else 'no'} |")
    assert "warning" not in table


@pytest.mark.parametrize("argv, seed", [([], "0"), (["--seed", "3"], "3")])
def test_seed_reaches_every_run(monkeypatch, capsys, tmp_path, argv, seed):
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout='{"metrics": {"wall_rel": {"value": 1.5}}, "failed": 0}\n')

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "b"), "--workload", "control_dw",
                             "--pairs", "2", *argv]) == 0
    assert len(commands) == 4
    assert all(cmd[cmd.index("--seed") + 1] == seed for cmd in commands)
    assert "failed ops: parent 0, change 0" in capsys.readouterr().out


def test_seed_must_be_an_integer(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["a", "b", "--workload", "control_dw", "--pairs", "1", "--seed", "x"])
    assert "--seed: invalid int value" in capsys.readouterr().err
