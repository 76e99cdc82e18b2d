"""`tools/ab.py` on one tree against itself: both copies load under their
own package names, give equal reports, and the summary names both trees
and the per-pair ratios."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import ab  # noqa: E402


def test_ab_runs_a_tree_against_itself(capsys):
    code = ab.main(["--base", str(ROOT), "--head", str(ROOT), "--workload", "swell",
                    "--rounds", "2"])
    out = capsys.readouterr().out
    assert code == 0, out
    lines = out.splitlines()
    assert lines[0] == "swell seed 0: 14 files, 2 pairs, every report equal"
    assert lines[1].startswith("  base median round ")
    assert lines[2].startswith("  head median round ")
    assert lines[3].startswith("  base/head per pair: median ")
    base_cli, _ = ab.load_tree(ROOT, "modcyclic_base")
    head_cli, _ = ab.load_tree(ROOT, "modcyclic_head")
    assert base_cli.__name__ == "modcyclic_base.cli"
    assert head_cli.run is not base_cli.run


def test_ab_stops_at_the_first_differing_report(capsys, monkeypatch):
    real = ab.one_round

    def one_round(cli, paths):
        seconds, outcomes = real(cli, paths)
        if cli.__name__.startswith("modcyclic_head"):
            outcomes[3] = (1, "changed")
        return seconds, outcomes

    monkeypatch.setattr(ab, "one_round", one_round)
    code = ab.main(["--base", str(ROOT), "--head", str(ROOT), "--workload", "swell",
                    "--rounds", "1"])
    assert code == 1
    assert capsys.readouterr().out.startswith("head round 0: file 0003 gives (1, 'changed')")
