"""`tools/ab.py` on one tree against itself: both copies load under their
own package names, give equal reports, and the summary names both trees,
the per-pair ratios, their quartiles and the count of pairs head won."""

import re
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
    assert re.fullmatch(r"  base/head quartiles \d+\.\d{3} to \d+\.\d{3}; "
                        r"head faster in [012] of 2 pairs", lines[4]), lines[4]
    assert len(lines) == 5
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


def test_ab_counts_the_pairs_head_wins(capsys, monkeypatch):
    # With every head round taking half a base round, each pair's ratio is
    # 2, so are both quartiles, and head wins every pair.
    real = ab.one_round

    def one_round(cli, paths):
        _, outcomes = real(cli, paths)
        return (1.0 if cli.__name__.startswith("modcyclic_head") else 2.0), outcomes

    monkeypatch.setattr(ab, "one_round", one_round)
    code = ab.main(["--base", str(ROOT), "--head", str(ROOT), "--workload", "swell",
                    "--rounds", "3"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[3:] == [
        "  base/head per pair: median 2.000, min 2.000, max 2.000",
        "  base/head quartiles 2.000 to 2.000; head faster in 3 of 3 pairs"]
