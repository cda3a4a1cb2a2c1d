"""Every public top-level def and class in src/svvlab has a caller in src."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "svvlab"

# uncalled on purpose, as (module, name): the reason each stays
ALLOWED = {
    # the paper's inequalities, for a checks.json that simulate is to write
    # (ROADMAP Direction 4); perfbench/verify_job.py calls the first two
    ("diagnostics", "energy_balance_check"),
    ("diagnostics", "entropy_inequality_residual"),
    ("diagnostics", "ensemble_moments"),
    ("entropy", "high_order_energy"),
    # builds the synthetic measures of the acceptance criteria
    ("young", "measure_from_atoms"),
    # the reader of the documented frame format
    ("io", "load_trajectory_states"),
}


def _is_cli_command(node):
    """Decorated as a click command or group."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def uncalled_names(package=PACKAGE):
    """(module, name) of each public top-level def or class of the package
    that no other top-level statement of its module names, and that no
    module imports from its module."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    imported = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update((node.module, alias.name) for alias in node.names)
    uncalled = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or _is_cli_command(node):
                continue
            used = any(
                isinstance(n, ast.Name) and n.id == node.name
                for other in tree.body
                if other is not node
                for n in ast.walk(other)
            )
            if not used and (module, node.name) not in imported:
                uncalled.add((module, node.name))
    return uncalled


def test_every_public_name_has_a_caller():
    # a name that gains a caller leaves ALLOWED too, so the list stays true
    assert uncalled_names() == ALLOWED


def test_names_resolve_per_module(tmp_path):
    # c imports b's relative_energy, which leaves a's uncalled (and c's energy)
    (tmp_path / "a.py").write_text("def relative_energy():\n    pass\n")
    (tmp_path / "b.py").write_text("def relative_energy():\n    pass\n")
    (tmp_path / "c.py").write_text(
        "from .b import relative_energy\n\n\ndef energy():\n    return relative_energy()\n"
    )
    assert uncalled_names(tmp_path) == {("a", "relative_energy"), ("c", "energy")}
