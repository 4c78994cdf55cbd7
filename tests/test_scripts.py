import collections
import csv
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stability_boundaries_quick_set(tmp_path):
    script = _load("reproduce_stability_boundaries")
    assert script.run(tmp_path, full=False) == 0
    for preset in script.QUICK:
        assert (tmp_path / preset / "curves.csv").is_file()
    md = json.loads((tmp_path / "fig4-l0.159-dd" / "metadata.json").read_text())
    assert len(md["curves"]) == 1


def test_equilibrium_sweeps(tmp_path):
    script = _load("reproduce_equilibrium_sweeps")
    assert script.run(str(tmp_path)) == 0
    kinds = collections.Counter()
    for path in sorted(tmp_path.glob("fig1-*/sweep_*.csv")):
        with path.open() as fh:
            for row in csv.DictReader(fh):
                kinds[row["kind"]] += 1
                if row["kind"] != "degenerate":
                    assert float(row["residual"]) <= 1e-12 * float(row["n_total"])
    assert kinds == {"e0": 980, "E1": 1201, "E2": 1819}


def test_readme_library_quick_start(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    verdict, frequency = (float(line) for line in capsys.readouterr().out.split())
    assert verdict < 0  # locally stable
    assert frequency == pytest.approx(namespace["start"].omega, rel=0.01)


def test_time_layers_one_round(capsys):
    script = _load("time_layers")
    times = script.run(repeats=1)
    assert len(times) == 25 and all(0 < t < float("inf") for t in times.values())
    assert capsys.readouterr().out.count(" us\n") == 25


def test_time_layers_writes_json(tmp_path, capsys):
    script = _load("time_layers")
    path = tmp_path / "layers.json"
    assert script.main(["--repeats", "1", "--json", str(path)]) == 0
    record = json.loads(path.read_text())
    printed = [line.rsplit(None, 2)[0] for line in capsys.readouterr().out.splitlines()]
    assert list(record["layers_us"]) == printed
    assert all(0 < t < float("inf") for t in record["layers_us"].values())
    assert {"_newton_batch grid 512 delta0 0", "_newton_batch grid 512 delta0 0.17"} <= set(printed)
    assert record["repeats"] == 1 and record["cpu_count"] >= 1
    assert record["python"].count(".") == 2 and record["numpy"]
    src = SCRIPTS.parent / "src" / "tde_plankton"
    assert record["src_lines"] == sum(len(f.read_text().splitlines()) for f in src.glob("*.py"))
