"""Every public top-level def and class in src/svvlab has a caller in src,
and so does every public method and property of a public class; each
module imports only the package modules its row of IMPORTS names; and only
pressure names BLOCK_POINTS."""

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

# methods and properties uncalled on purpose, as (module, "Class.name")
ALLOWED_MEMBERS = {
    # the constant generator psi = c, whose entropy pair is a multiple of (rho, m)
    ("entropy", "EntropySpec.constant"),
    # the table's accuracy on its b = 0 boundary data
    ("goursat", "GoursatTable.boundary_residual"),
    # one mode's mollified coefficient, the term the forcing sums
    ("noise", "NoiseModel.zeta_eff"),
    # P'', beside the P and P' that the pressure pair gives
    ("pressure", "PressureLaw.d2pressure"),
    # c = sqrt(P'), which the CFL guard takes from the state's P'
    ("pressure", "PressureLaw.sound_speed"),
    # (rho e)' = e + P / rho, which the energy flux m (u^2 / 2 + (rho e)') carries
    ("pressure", "PressureLaw.rho_e_prime"),
    # the last saved state of a run
    ("solver", "Trajectory.final"),
    # the partition with twice the cells in t and x, for a refinement study
    ("young", "CellPartition.refine"),
}


# each module's relative imports ("__init__" is the package itself): the
# layers of the package, lowest first, so that a lower module that comes to
# import a higher one fails here
IMPORTS = {
    "errors": set(),
    "pressure": {"errors"},
    "noise": {"errors", "pressure"},
    "solver": {"errors", "pressure"},
    "entropy": {"errors", "pressure"},
    "goursat": {"entropy", "errors", "pressure"},
    "io": {"errors", "solver"},
    "diagnostics": {"entropy", "errors", "pressure", "solver"},
    "young": {"entropy", "errors", "pressure", "solver"},
    "config": {"entropy", "errors", "noise", "pressure", "solver"},
    "__init__": {"entropy", "noise", "pressure", "solver"},
    "cli": {
        "__init__", "config", "diagnostics", "entropy", "errors", "goursat", "io",
        "noise", "pressure", "solver", "young",
    },
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


def uncalled_members(package=PACKAGE):
    """(module, "Class.name") of each public method or property of a
    public top-level class of the package whose name no attribute access
    in the package uses."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    accessed = {
        n.attr for tree in trees.values() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
    }
    return {
        (module, f"{cls.name}.{member.name}")
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in accessed
    }


def test_every_public_name_has_a_caller():
    # a name that gains a caller leaves ALLOWED too, so the list stays true
    assert uncalled_names() == ALLOWED


def test_every_public_member_has_a_caller():
    # likewise: a member that gains a caller leaves ALLOWED_MEMBERS
    assert uncalled_members() == ALLOWED_MEMBERS


def test_names_resolve_per_module(tmp_path):
    # c imports b's relative_energy, which leaves a's uncalled (and c's energy)
    (tmp_path / "a.py").write_text("def relative_energy():\n    pass\n")
    (tmp_path / "b.py").write_text("def relative_energy():\n    pass\n")
    (tmp_path / "c.py").write_text(
        "from .b import relative_energy\n\n\ndef energy():\n    return relative_energy()\n"
    )
    assert uncalled_names(tmp_path) == {("a", "relative_energy"), ("c", "energy")}


def test_members_resolve_by_attribute(tmp_path):
    # a.Law.used is read as an attribute in b; a.Law.spare and the private
    # class's method are not, and only the public class's member counts
    (tmp_path / "a.py").write_text(
        "class Law:\n"
        "    def used(self):\n        pass\n\n"
        "    @property\n    def spare(self):\n        pass\n\n"
        "    def _private(self):\n        pass\n\n\n"
        "class _Hidden:\n    def alone(self):\n        pass\n"
    )
    (tmp_path / "b.py").write_text("def f(law):\n    return law.used()\n")
    assert uncalled_members(tmp_path) == {("a", "Law.spare")}


def relative_imports(package=PACKAGE):
    """module -> the package modules that its relative imports name,
    anywhere in the module; "from . import name" names the module name
    if there is one, else the package's __init__."""
    graph = {}
    for path in sorted(package.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(
                    a.name if (package / f"{a.name}.py").exists() else "__init__"
                    for a in node.names
                )
        graph[path.stem] = names
    return graph


def test_import_graph():
    assert relative_imports() == IMPORTS


def test_import_table_is_layered():
    # some order of the modules puts each after every module it imports
    placed, left = set(), dict(IMPORTS)
    while left:
        ready = {m for m, names in left.items() if names <= placed}
        assert ready, f"import cycle among {sorted(left)}"
        placed |= ready
        left = {m: names for m, names in left.items() if m not in ready}


def test_imports_resolve_per_module(tmp_path):
    (tmp_path / "__init__.py").write_text("__version__ = '0'\n")
    (tmp_path / "a.py").write_text("from . import b, __version__\n")
    (tmp_path / "b.py").write_text("def f():\n    from .c import g\n    return g\n")
    (tmp_path / "c.py").write_text("import json\n")
    assert relative_imports(tmp_path) == {
        "__init__": set(), "a": {"b", "__init__"}, "b": {"c"}, "c": set(),
    }


def block_size_readers(package=PACKAGE):
    """The modules of the package whose code names BLOCK_POINTS: as a
    name, an attribute or an imported name."""
    readers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Name) and node.id == "BLOCK_POINTS"
                or isinstance(node, ast.Attribute) and node.attr == "BLOCK_POINTS"
                or isinstance(node, ast.alias) and node.name == "BLOCK_POINTS"
            ):
                readers.add(path.stem)
    return readers


def test_block_size_is_read_in_pressure_alone():
    # every other module takes its blocks from pressure._blocks, the one
    # rule for rows per block
    assert block_size_readers() == {"pressure"}


def test_block_size_readers_see_every_form(tmp_path):
    (tmp_path / "a.py").write_text("from .p import BLOCK_POINTS\n")
    (tmp_path / "b.py").write_text("from . import p\n\nrows = p.BLOCK_POINTS // 8\n")
    (tmp_path / "c.py").write_text("# BLOCK_POINTS, in a comment\nBLOCKS = 2\n")
    (tmp_path / "d.py").write_text("def f():\n    return BLOCK_POINTS\n")
    assert block_size_readers(tmp_path) == {"a", "b", "d"}
