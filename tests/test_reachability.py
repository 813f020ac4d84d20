"""Every module in ``src/repro`` earns its place, every policy field has
a caller, and every name the examples and docs point at exists.

The first check walks the import graph statically (``ast``; nothing is
imported) from the program's roots — ``repro.__main__`` (hence the CLI),
``bench/*.py`` and ``benchmarks/*.py`` (the paper rows) — and fails on
any non-package module of ``src/repro`` it does not reach.  Three rules
decide what an import reaches:

* ``from pkg import name`` reaches the submodule that *defines* ``name``,
  found through the lazy export table of ``pkg/__init__.py`` (or its own
  imports), so a package that exports everything does not make everything
  reachable;
* a package bound as a namespace (``from repro.tensor import ops``,
  ``import repro.tensor.ops``) reaches every module its table names and
  what its ``__init__`` imports;
* a string literal equal to a module's dotted name reaches that module
  (the CLI picks backends from a table of such names).

A module reached by none of these is deleted, given a root, or named in
``EXCEPTIONS`` with its reason.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules kept although no root reaches them, each with its reason.
EXCEPTIONS = {}


def module_index(src=SRC):
    """Dotted module name → (path, is_package) for every module under ``src``."""
    index = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        index[".".join(parts)] = (path, is_package)
    return index


@lru_cache(maxsize=None)
def _parse(path):
    return ast.parse(Path(path).read_text(encoding="utf-8"), filename=str(path))


def _absolute(node, module, is_package):
    """The dotted module a ``from ... import`` statement names."""
    if not node.level:
        return node.module or ""
    base = module.split(".") if is_package else module.split(".")[:-1]
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


class Reachability:
    """The import-graph walk; ``reached`` holds every module visited."""

    def __init__(self, index):
        self.index = index
        self.reached = set()

    def visit(self, name):
        """Reach module ``name`` and everything its own body reaches; for
        a package, that is binding it as a namespace."""
        if name in self.reached or name not in self.index:
            return
        self.reached.add(name)
        path, is_package = self.index[name]
        self.walk(_parse(path), name, is_package)
        if is_package:
            for exported in _reexports(path, name).values():
                for origin, original in exported:
                    self.from_import(origin, original)

    def walk(self, tree, module="", is_package=False):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.visit(alias.name)
            elif isinstance(node, ast.ImportFrom):
                source = _absolute(node, module, is_package)
                for alias in node.names:
                    self.from_import(source, alias.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                entry = self.index.get(node.value)
                if entry is not None and not entry[1]:
                    self.visit(node.value)

    def from_import(self, source, name):
        """``from source import name``: a submodule, a name ``source``
        defines, or a name its ``__init__`` re-exports from elsewhere."""
        if f"{source}.{name}" in self.index:
            self.visit(f"{source}.{name}")
            return
        entry = self.index.get(source)
        if entry is None:
            return
        path, is_package = entry
        if not is_package or name == "*":
            self.visit(source)
            return
        for origin, original in _reexports(path, source).get(name, ()):
            self.from_import(origin, original)


def _lazy_table(tree):
    """Submodule → exported names (``None``: the submodule itself) of the
    ``_lazy(__name__, {...})`` call in a package ``__init__``, if any."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_lazy"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)
        ):
            return ast.literal_eval(node.args[1])
    return {}


@lru_cache(maxsize=None)
def _reexports(path, package):
    """Name → [(module, name there)] for what a package ``__init__``
    exports through its lazy table or binds by ``from ... import``; a
    submodule exported as itself is ``(package, its name)``."""
    tree = _parse(path)
    found = {}
    for module, names in _lazy_table(tree).items():
        for name in names or (module,):
            origin = f"{package}.{module}" if names else package
            found.setdefault(name, []).append((origin, name))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source = _absolute(node, package, True)
            for alias in node.names:
                found.setdefault(alias.asname or alias.name, []).append((source, alias.name))
    return found


def root_files(root=ROOT):
    return sorted((root / "bench").glob("*.py")) + sorted((root / "benchmarks").glob("*.py"))


def unreached(root=ROOT):
    """Non-package ``src/repro`` modules no root reaches."""
    index = module_index(root / "src")
    walk = Reachability(index)
    walk.visit("repro.__main__")
    for path in root_files(root):
        walk.walk(_parse(path))
    return sorted(
        name for name, (_, is_package) in index.items()
        if not is_package and name not in walk.reached
    )


def test_every_module_is_reached_from_a_root():
    stray = [name for name in unreached() if name not in EXCEPTIONS]
    assert not stray, (
        "modules no CLI verb, bench workload or benchmarks/ row reaches — "
        "give each a root, delete it, or name it in EXCEPTIONS with a reason:\n"
        + "\n".join(stray)
    )


def test_each_exception_still_exists_and_is_still_unreached():
    index = module_index()
    missing = sorted(set(EXCEPTIONS) - set(index))
    assert not missing, f"EXCEPTIONS names modules that no longer exist: {missing}"
    now_reached = sorted(set(EXCEPTIONS) - set(unreached()))
    assert not now_reached, f"these are reached now; drop them from EXCEPTIONS: {now_reached}"


def test_the_walk_follows_definitions_not_reexports(tmp_path):
    """A package ``__init__`` that re-exports two modules reaches only
    the one whose name is imported; a namespace binding reaches both;
    a string naming a module reaches it."""
    pkg = tmp_path / "src" / "repro"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "__main__.py").write_text("from repro.sub import used\n")
    (pkg / "sub" / "__init__.py").write_text(
        "from repro.sub.a import used\nfrom repro.sub.b import idle\n"
    )
    (pkg / "sub" / "a.py").write_text("used = 1\n")
    (pkg / "sub" / "b.py").write_text("idle = 2\n")
    (pkg / "by_name.py").write_text("")
    (pkg / "ns.py").write_text("")
    (tmp_path / "bench").mkdir()
    (tmp_path / "benchmarks").mkdir()
    assert unreached(tmp_path) == ["repro.by_name", "repro.ns", "repro.sub.b"]

    (tmp_path / "bench" / "run.py").write_text(
        "from repro import sub\nTABLE = {'x': ('repro.by_name', 'f')}\n"
    )
    assert unreached(tmp_path) == ["repro.ns"]


def test_the_walk_reads_lazy_export_tables(tmp_path):
    """The same rules through a package that exports lazily: importing one
    name reaches only its module, and binding the package as a namespace
    reaches every module of its table, a submodule exported as itself too."""
    pkg = tmp_path / "src" / "repro"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("def _lazy(package, table): ...\n")
    (pkg / "__main__.py").write_text("from repro.sub import used\n")
    (pkg / "sub" / "__init__.py").write_text(
        "from repro import _lazy\n\n"
        "__all__, __getattr__, __dir__ = _lazy(__name__, {\n"
        "    'a': ('used', 'also'),\n    'b': ('idle',),\n    'ns': None,\n})\n"
    )
    for name, body in {"a": "used = also = 1\n", "b": "idle = 2\n", "ns": ""}.items():
        (pkg / "sub" / f"{name}.py").write_text(body)
    (tmp_path / "bench").mkdir()
    (tmp_path / "benchmarks").mkdir()
    assert unreached(tmp_path) == ["repro.sub.b", "repro.sub.ns"]

    (tmp_path / "bench" / "run.py").write_text("import repro.sub\n")
    assert unreached(tmp_path) == []


# ---------------------------------------------------------------------------
# Names the examples import and the docs cite
# ---------------------------------------------------------------------------

DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md", ROOT / "DESIGN.md"]

#: A backticked dotted path into the package, e.g. `repro.comm.plugin.PluginConfig`.
_DOTTED = re.compile(r"`(repro(?:\.\w+)+)")


def _defines(path):
    """Names a module's top level binds (definitions, assignments, imports,
    and a package's lazy exports)."""
    tree = _parse(path)
    names = {
        name for module, exported in _lazy_table(tree).items() for name in exported or (module,)
    }
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def resolves(dotted, index):
    """Whether ``dotted`` names a module, or an attribute of the longest
    module prefix of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        if module in index:
            rest = parts[cut:]
            if not rest:
                return True
            return rest[0] in _defines(index[module][0])
    return False


def test_examples_import_only_what_exists():
    """CI runs two of the examples; an import of a deleted name breaks
    the others silently, so every ``from repro… import X`` resolves — in
    the examples, and in ``bench/`` and ``benchmarks/``, whose imports
    otherwise break only when the benchmark runs."""
    index = module_index()
    broken = []
    for path in sorted((ROOT / "examples").glob("*.py")) + root_files():
        name = path.relative_to(ROOT)
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                broken += [
                    f"{name}: from {node.module} import {a.name}"
                    for a in node.names
                    if not resolves(f"{node.module}.{a.name}", index)
                ]
            elif isinstance(node, ast.Import):
                broken += [
                    f"{name}: import {a.name}"
                    for a in node.names
                    if a.name.startswith("repro") and a.name not in index
                ]
    assert not broken, "imports of names that do not exist:\n" + "\n".join(broken)


def test_docs_cite_only_what_exists():
    index = module_index()
    broken = [
        f"{path.relative_to(ROOT)}:{number}: {dotted}"
        for path in DOCS
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for dotted in _DOTTED.findall(line)
        if not resolves(dotted, index)
    ]
    assert not broken, "docs cite repro paths that do not exist:\n" + "\n".join(broken)


# ---------------------------------------------------------------------------
# Every policy field has a caller
# ---------------------------------------------------------------------------

#: Policy classes, each with the module that defines it.
POLICY_CLASSES = {
    "ServeConfig": "repro/serve/server.py",
    "WorkloadSpec": "repro/serve/workload.py",
    "StagingConfig": "repro/io/staging.py",
    "StalenessConfig": "repro/comm/stale.py",
    "PluginConfig": "repro/comm/plugin.py",
    "ElasticConfig": "repro/core/elastic.py",
    "EngineConfig": "repro/core/engine.py",
}

#: Defaulted fields kept although no caller outside tests sets them,
#: each with its reason.
KEEP = {
    "EngineConfig.divergence_threshold": "a safety bound: the cross-rank parameter "
    "spread the synchronous-training invariant tolerates",
    "ElasticConfig.join_timeout_s": "a safety bound: the wall-time cap a scheduler "
    "may need on one launch of the training group",
}

#: Where a caller counts: the program, the benchmark and the examples.
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")


def defaulted_fields(path, cls):
    """The fields of class ``cls`` in ``path`` that carry a default."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return [
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign) and statement.value is not None
            ]
    raise AssertionError(f"{cls} is not defined in {path}")


def keywords_set(root=ROOT):
    """``(callee, keyword)`` for every keyword a call under ``CALLER_DIRS``
    passes, a ``**{"key": ...}`` splat's keys included; the callee is the
    called name, or the attribute called (``dataclasses.replace``)."""
    found = set()
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        found.add((callee, keyword.arg))
                    elif isinstance(keyword.value, ast.Dict):
                        found.update(
                            (callee, key.value)
                            for key in keyword.value.keys
                            if isinstance(key, ast.Constant)
                        )
    return found


def uncalled_fields(root=ROOT, classes=POLICY_CLASSES):
    """``Class.field`` for every defaulted policy field no caller sets —
    by keyword to the class, or through ``replace``/``_replace``."""
    passed = keywords_set(root)
    return sorted(
        f"{cls}.{name}"
        for cls, module in classes.items()
        for name in defaulted_fields(root / "src" / module, cls)
        if not any((callee, name) in passed for callee in (cls, "replace", "_replace"))
    )


def test_every_policy_field_has_a_caller():
    uncalled = uncalled_fields()
    stray = [field for field in uncalled if field not in KEEP]
    assert not stray, (
        "policy fields no CLI verb, bench workload, benchmarks/ row or example "
        "sets — make each a constant, or name it in KEEP with a reason:\n" + "\n".join(stray)
    )
    settable = [field for field in KEEP if field not in uncalled]
    assert not settable, f"these have a caller now; drop them from KEEP: {settable}"


def test_the_field_scan_sees_keywords_replace_and_splats(tmp_path):
    """A field counts as set through a keyword to its class, a keyword to
    ``replace``, or a key of a ``**{...}`` splat; one set only in tests
    does not count."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "policy.py").write_text(
        "@dataclass\nclass ServeConfig:\n    required: int\n    a: int = 1\n"
        "    b: int = 2\n    c: int = 3\n    d: int = 4\n"
    )
    for directory in ("bench", "benchmarks", "examples", "tests"):
        (tmp_path / directory).mkdir()
    (tmp_path / "tests" / "test_policy.py").write_text("ServeConfig(d=0)\n")
    (tmp_path / "bench" / "run.py").write_text(
        "from repro import policy\npolicy.ServeConfig(a=0)\nreplace(config, b=0)\n"
    )
    (tmp_path / "examples" / "demo.py").write_text("ServeConfig(**{'c': 0})\n")
    classes = {"ServeConfig": "repro/policy.py"}
    assert uncalled_fields(tmp_path, classes) == ["ServeConfig.d"]
