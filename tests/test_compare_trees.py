"""The two-tree output comparison of ``tools/compare_trees.py``."""

import ast
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _compare_trees():
    spec = importlib.util.spec_from_file_location(
        "compare_trees", ROOT / "tools" / "compare_trees.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


compare_trees = _compare_trees()


def test_a_tree_matches_itself():
    commands = {c.label: c for c in compare_trees.default_commands()}
    chosen = [commands["analytic --form sampling-fraction"],
              commands["sweep --figure 1b --units 0"]]
    out = io.StringIO()
    assert compare_trees.compare(ROOT, ROOT, chosen, out=out)
    assert out.getvalue() == ("identical  analytic --form sampling-fraction\n"
                              "identical  sweep --figure 1b --units 0\n")


def test_a_difference_is_reported_with_its_diff(tmp_path):
    # A tree whose only demo prints something else than this tree's.
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "d.py").write_text("print('other')\n")
    demo = compare_trees.Command("demo d.py", ("{root}/demos/d.py",))
    mine = tmp_path / "mine"
    (mine / "demos").mkdir(parents=True)
    (mine / "demos" / "d.py").write_text("print('mine')\n")
    out = io.StringIO()
    assert not compare_trees.compare(tmp_path, mine, [demo], out=out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "different  demo d.py"
    assert "-other" in lines and "+mine" in lines


def _bench_pipelines() -> dict:
    """``PIPELINES`` of bench/run.py, read from its source without running
    it: workload name -> (units per arm, setup lines, design preset)."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    (table,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["PIPELINES"]]
    pipelines = {}
    for name, spec in zip(table.keys, table.values):
        given = {k.arg: k.value for k in spec.keywords}
        pipelines[ast.literal_eval(name)] = tuple(
            ast.literal_eval(given[field])
            for field in ("units_per_arm", "setup", "design"))
    return pipelines


def test_pipelines_follow_the_benchmark():
    # A stale copy would compare configs the benchmark no longer runs.
    assert {f"pipeline-{name}": spec for name, spec
            in compare_trees.PIPELINES.items()} == _bench_pipelines()
