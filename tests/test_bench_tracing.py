"""The benchmark's per-layer tracer (bench/tracing.py) still fits the package:
every function it wraps exists under its name, a traced check reports what an
untraced one does, and every per-layer metric it promises is produced."""

import json
from pathlib import Path

from modcyclic.cli import main
from modcyclic.instances import dumps, gen_zmod

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_every_layer(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    path = tmp_path / "t.json"
    path.write_text(dumps(gen_zmod(4, [2, 2])))
    argv = ["check", str(path), "--format", "json"]
    assert main(argv) == 1
    untraced = capsys.readouterr().out

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(argv) == 1
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == untraced
    assert json.loads(untraced)["verdict"] == "not_cyclic"

    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    assert metrics["cyclic.step.calls"]["value"] >= 2
    assert metrics["intlinalg.hnf.calls"]["value"] > 0
    assert metrics["modules.act.calls"]["value"] > 0
    # the traced main() reached the wrapped cmd_check, though the parser
    # was already built by the untraced one
    assert tracer.stats["cli.check"].calls == 1
