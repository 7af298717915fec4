"""Packaging sanity: metadata, exports and the NumPy-only contract.

``setup.py`` declares NumPy as the only dependency, so every ``repro``
module must import with nothing but the standard library and NumPy
installed.  ``repro.nn`` — the training engine every module, baseline, and
the end model run through — is held to more: it may import only the
standard library, NumPy, and ``repro.nn`` itself.  ``setup.py`` must carry
real metadata (it used to defer to a ``pyproject.toml`` that did not exist).
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import repro
import repro.nn

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "src", "repro")
NN_ROOT = os.path.join(SRC_ROOT, "nn")

ALLOWED_TOP_LEVEL = {"numpy"}


def iter_nn_source_files():
    for dirpath, _, filenames in os.walk(NN_ROOT):
        for filename in filenames:
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def offending_imports(path):
    """Imports that would break a numpy-only install of ``repro.nn``."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top not in ALLOWED_TOP_LEVEL and top not in STDLIB:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level >= 2:
                # ``from .. import X`` would reach outside repro.nn.
                yield "." * node.level + (node.module or "")
            elif node.level == 0 and node.module:
                top = node.module.split(".")[0]
                if top == "repro" and not node.module.startswith("repro.nn"):
                    yield node.module
                elif top != "repro" and top not in ALLOWED_TOP_LEVEL \
                        and top not in STDLIB:
                    yield node.module


STDLIB = set(sys.stdlib_module_names)


class TestExtrasFreeInstall:
    def test_repro_nn_imports_with_numpy_only(self):
        """repro.nn imports only stdlib, numpy, and itself."""
        offenders = {}
        for path in iter_nn_source_files():
            bad = sorted(set(offending_imports(path)))
            if bad:
                offenders[os.path.relpath(path, SRC_ROOT)] = bad
        assert not offenders, \
            f"repro.nn must depend on numpy only, found: {offenders}"

    def test_engine_package_is_importable(self):
        assert hasattr(repro.nn, "Tensor")
        assert hasattr(repro.nn, "no_grad")
        assert hasattr(repro.nn, "default_dtype")


#: Imports every ``repro`` module with a ``sys.meta_path`` finder in front
#: that refuses any top-level module outside the standard library and NumPy,
#: as if nothing else were installed.  Run in a fresh interpreter so no
#: module is already cached in ``sys.modules``.
HERMETIC_IMPORT = textwrap.dedent("""
    import importlib, pkgutil, sys

    ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}

    class Refuse:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] not in ALLOWED:
                raise ModuleNotFoundError(f"{name} is not a declared dependency",
                                          name=name)
            return None

    sys.meta_path.insert(0, Refuse())
    import repro
    names = ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.")]
    for name in names:
        importlib.import_module(name)
    print(len(names))
""")


class TestHermeticImports:
    def test_every_module_imports_with_only_stdlib_and_numpy(self):
        src = os.path.dirname(SRC_ROOT)
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", HERMETIC_IMPORT],
                                capture_output=True, text=True, env=env,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) > 50      # walked the whole package


class TestExports:
    def test_every_name_in_all_resolves(self):
        """A name left in an ``__all__`` after its definition is deleted
        breaks ``from module import *`` only when someone runs it."""
        names = ["repro"] + [info.name for info in pkgutil.walk_packages(
            repro.__path__, "repro.")]
        missing = {}
        checked = 0
        for name in names:
            module = importlib.import_module(name)
            exported = getattr(module, "__all__", None)
            if exported is None:
                continue
            checked += 1
            absent = [n for n in exported if not hasattr(module, n)]
            if absent:
                missing[name] = absent
        assert not missing, f"__all__ lists names that do not resolve: {missing}"
        assert checked > 40         # walked the whole package


def unused_imports(path):
    """Names a module imports and never reads.

    A name counts as read when the module loads it (``ast.Name``), lists it
    in ``__all__``, or names it in a string annotation.  Package
    ``__init__`` modules re-export what they import, so callers skip them.
    """
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = set()

    def read_names(subtree):
        for sub in ast.walk(subtree):
            if isinstance(sub, ast.Name):
                read.add(sub.id)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read_names(ast.parse(sub.value, mode="eval"))

    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    for annotation in annotations:
        read_names(annotation)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


class TestNoUnusedImports:
    def test_no_module_imports_a_name_it_never_reads(self):
        unused = {}
        for dirpath, _, filenames in os.walk(SRC_ROOT):
            for filename in filenames:
                if filename.endswith(".py") and filename != "__init__.py":
                    path = os.path.join(dirpath, filename)
                    found = unused_imports(path)
                    if found:
                        unused[os.path.relpath(path, SRC_ROOT)] = found
        assert not unused, f"unused imports (line, name): {unused}"


class TestSetupMetadata:
    def test_setup_py_declares_metadata(self):
        setup_path = os.path.join(os.path.dirname(SRC_ROOT), os.pardir, "setup.py")
        with open(os.path.normpath(setup_path), "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        call = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", "") == "setup")
        keywords = {kw.arg for kw in call.keywords}
        for required in ("name", "version", "package_dir", "packages",
                         "python_requires", "install_requires"):
            assert required in keywords, f"setup() missing {required!r}"
