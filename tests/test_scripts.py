import collections
import csv
import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
