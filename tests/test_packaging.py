"""Packaging sanity: metadata, exports and the NumPy-only contract.

``setup.py`` declares NumPy as the only dependency, so every ``repro``
module must import with nothing but the standard library and NumPy
installed.  ``repro.nn`` — the training engine every module, baseline, and
the end model run through — is held to more: it may import only the
standard library, NumPy, and ``repro.nn`` itself.  ``setup.py`` must carry
real metadata (it used to defer to a ``pyproject.toml`` that did not exist),
and its ``test`` extra must declare every third-party module the tests
import, so ``pip install ".[test]"`` is the whole tier-1 install.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import textwrap

import repro
import repro.nn

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
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


#: the trees held to the unused-import scan (``perfbench`` is the
#: repository benchmark's own tree and changes only with the benchmark)
IMPORT_SCAN_TREES = ("src", "examples", "benchmarks", "tests")

#: imports kept for their side effect alone, each with its reason
SIDE_EFFECT_IMPORTS = {
    "_blas_threads": "pins the BLAS thread count before numpy loads",
}


class TestNoUnusedImports:
    def test_no_module_imports_a_name_it_never_reads(self):
        unused = {}
        for tree in IMPORT_SCAN_TREES:
            for path in iter_python_files(os.path.join(REPO_ROOT, tree)):
                if os.path.basename(path) == "__init__.py":
                    continue
                found = [(line, name) for line, name in unused_imports(path)
                         if name not in SIDE_EFFECT_IMPORTS]
                if found:
                    unused[os.path.relpath(path, REPO_ROOT)] = found
        assert not unused, f"unused imports (line, name): {unused}"

    def test_every_side_effect_import_is_still_made(self):
        """An allowlisted name that no module imports without reading it
        is stale."""
        unread = {name for tree in IMPORT_SCAN_TREES
                  for path in iter_python_files(os.path.join(REPO_ROOT, tree))
                  for _, name in unused_imports(path)}
        stale = sorted(set(SIDE_EFFECT_IMPORTS) - unread)
        assert not stale, f"stale allowlist entries: {stale}"


#: the names that start or run an HTTP serving loop by hand
SERVING_LOOP_NAMES = {"serve_forever", "start_http_server"}
#: where a serving loop may be run: the endpoint itself and the two
#: processes whose main thread is one (a fleet worker, the CLI); a
#: ``(path, function)`` pair allows that function only
SERVING_LOOP_ALLOWED = {
    (os.path.join("src", "repro", "serve", "http.py"), None),
    (os.path.join("src", "repro", "serve", "fleet.py"), "_worker_main"),
    (os.path.join("src", "repro", "serve", "__main__.py"), None),
}


def serving_loop_reads(path):
    """``(line, name)`` of every read of a serving-loop name in a file,
    skipping the function the allowlist names for it (if any)."""
    relpath = os.path.relpath(path, REPO_ROOT)
    allowed = {function for allowed_path, function in SERVING_LOOP_ALLOWED
               if allowed_path == relpath}
    if None in allowed:
        return []
    tree = parse(path)
    skipped = {id(node)
               for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef)
               and function.name in allowed
               for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name in SERVING_LOOP_NAMES)
    return found


class TestOneServingLifecycle:
    def test_no_serving_loop_outside_the_endpoint(self):
        """An HTTP endpoint starts with ``make_http_server(...).start()``
        and ends with ``.stop()``; a hand-rolled ``serve_forever`` thread
        polls at the stdlib's 0.5 s and never closes its socket."""
        reads = {}
        for tree in IMPORT_SCAN_TREES:
            for path in iter_python_files(os.path.join(REPO_ROOT, tree)):
                found = serving_loop_reads(path)
                if found:
                    reads[os.path.relpath(path, REPO_ROOT)] = found
        assert not reads, f"serving loops outside repro.serve.http: {reads}"

    def test_every_allowlisted_loop_is_still_run(self):
        """An allowlisted file or function that no longer runs a serving
        loop is stale."""
        for relpath, function in SERVING_LOOP_ALLOWED:
            tree = parse(os.path.join(REPO_ROOT, relpath))
            scopes = [node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == function] if function else [tree]
            assert any(isinstance(node, ast.Attribute)
                       and node.attr == "serve_forever"
                       for scope in scopes for node in ast.walk(scope)), \
                f"stale allowlist entry: {relpath} {function or ''}"


#: the attributes that run a backward pass or clear gradients by hand
TRAINING_STEP_NAMES = {"backward", "zero_grad"}
#: where they may be read: the replay executor, which runs every training
#: step, and ``Optimizer.zero_grad``'s own ``p.zero_grad()``; a
#: ``(path, function)`` pair allows that function only
TRAINING_STEP_ALLOWED = {
    (os.path.join("src", "repro", "nn", "replay.py"), None),
    (os.path.join("src", "repro", "nn", "optim.py"), "zero_grad"),
}


def training_step_reads(path):
    """``(line, name)`` of every attribute read of a training-step name in
    a file, skipping the function the allowlist names for it (if any)."""
    relpath = os.path.relpath(path, REPO_ROOT)
    allowed = {function for allowed_path, function in TRAINING_STEP_ALLOWED
               if allowed_path == relpath}
    if None in allowed:
        return []
    tree = parse(path)
    skipped = {id(node)
               for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef)
               and function.name in allowed
               for node in ast.walk(function)}
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in skipped
            and node.attr in TRAINING_STEP_NAMES]


class TestOneTrainingStepPath:
    def test_no_backward_outside_the_replay_executor(self):
        """Every training update runs through ``GraphReplay.step_fn``; a
        loop with its own ``zero_grad()`` / ``backward()`` is never
        replayed or counted."""
        reads = {}
        for path in iter_python_files(SRC_ROOT):
            found = training_step_reads(path)
            if found:
                reads[os.path.relpath(path, REPO_ROOT)] = found
        assert not reads, f"training steps outside repro.nn.replay: {reads}"

    def test_every_allowlisted_read_is_still_made(self):
        """An allowlisted file or function that no longer reads a
        training-step name is stale."""
        for relpath, function in TRAINING_STEP_ALLOWED:
            tree = parse(os.path.join(REPO_ROOT, relpath))
            scopes = [node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == function] if function else [tree]
            assert any(isinstance(node, ast.Attribute)
                       and node.attr in TRAINING_STEP_NAMES
                       for scope in scopes for node in ast.walk(scope)), \
                f"stale allowlist entry: {relpath} {function or ''}"


#: Public definitions in ``src/repro`` that no program reads by name, each
#: kept on purpose.
TEST_ONLY_API_ALLOWED = {
    "_ServeHandler.do_GET": "http.server dispatches GET to it by name",
    "_ServeHandler.do_POST": "http.server dispatches POST to it by name",
    "_ServeHandler.log_message": "http.server's request-log hook",
    "_ServeHandler.send_error": "http.server's own error replies call it",
    "Module.clone": "the public model copy (ROADMAP item 14)",
    "Aggregate.overlaps": "the paper's tie criterion; ROADMAP item 12's "
                          "gates will read it",
    "ModelRegistry.set_latest": "the documented rollback "
                                "(docs/serving.md)",
    "ServingFleet.rolling_swap": "the documented fleet upgrade (README, "
                                 "docs/serving.md)",
}

#: the trees whose reads keep a public name alive (tests do not count)
PROGRAM_TREES = ("src", "examples", "benchmarks", "perfbench")


def iter_python_files(top):
    for dirpath, _, filenames in os.walk(top):
        for filename in filenames:
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def parse(path):
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def program_reads():
    """The names the program trees load, as ``(names, attributes)``:
    ``Name`` reads and ``Attribute`` reads.  An import or an ``__all__``
    entry is not a read."""
    names, attributes = set(), set()
    for path in (path for tree in PROGRAM_TREES
                 for path in iter_python_files(os.path.join(REPO_ROOT, tree))):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def public_definitions(path):
    """``(qualified name, name, is_method)`` of a module's public functions
    and classes and of its classes' public methods."""
    definition = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in parse(path).body:
        if not isinstance(node, definition):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, definition) \
                        and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name, True


def is_read(name, is_method, reads):
    """A method is read only as an attribute (``obj.name``): a bare
    ``name`` is a function or class of that name.  A function or class
    counts through either kind of read (``module.name`` or ``name``)."""
    names, attributes = reads
    return name in attributes or (not is_method and name in names)


class TestNoTestOnlyApi:
    def test_every_public_definition_is_read_by_a_program(self):
        """A public function, method or class that only tests call is
        code kept alive by its tests; delete it or allowlist it with a
        reason."""
        reads = program_reads()
        unread = {}
        for path in iter_python_files(SRC_ROOT):
            for qualified, name, is_method in public_definitions(path):
                if not is_read(name, is_method, reads) \
                        and qualified not in TEST_ONLY_API_ALLOWED:
                    unread[qualified] = os.path.relpath(path, REPO_ROOT)
        assert not unread, f"public names only tests read: {unread}"

    def test_every_allowlisted_name_is_still_unread(self):
        """An allowlist entry whose name a program now reads, or whose
        definition is gone, is stale."""
        reads = program_reads()
        defined = {qualified: (name, is_method)
                   for path in iter_python_files(SRC_ROOT)
                   for qualified, name, is_method in public_definitions(path)}
        stale = sorted(qualified for qualified in TEST_ONLY_API_ALLOWED
                       if qualified not in defined
                       or is_read(*defined[qualified], reads))
        assert not stale, f"stale allowlist entries: {stale}"


def setup_keywords():
    """The keyword arguments of ``setup.py``'s ``setup()`` call (AST nodes)."""
    setup_path = os.path.join(REPO_ROOT, "setup.py")
    with open(setup_path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    call = next(node for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", "") == "setup")
    return {kw.arg: kw.value for kw in call.keywords}


class TestSetupMetadata:
    def test_setup_py_declares_metadata(self):
        keywords = setup_keywords()
        for required in ("name", "version", "package_dir", "packages",
                         "python_requires", "install_requires"):
            assert required in keywords, f"setup() missing {required!r}"


def top_level_imports(path):
    """Top-level names of a file's absolute imports."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


class TestDeclaredTestDependencies:
    def test_every_test_import_is_declared(self):
        """``pip install ".[test]"`` is all the suite needs: every
        third-party module a test imports is NumPy or in the test extra."""
        extras = setup_keywords().get("extras_require")
        requirements = (ast.literal_eval(extras).get("test", [])
                        if extras is not None else [])
        declared = {re.split(r"[<>=!~;\[ ]", requirement)[0]
                    .lower().replace("-", "_")
                    for requirement in requirements}
        allowed = STDLIB | ALLOWED_TOP_LEVEL | declared | {"repro"}
        undeclared = {}
        checked = 0
        for dirpath, _, filenames in os.walk(os.path.join(REPO_ROOT, "tests")):
            for filename in filenames:
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    checked += 1
                    bad = sorted(set(top_level_imports(path)) - allowed)
                    if bad:
                        undeclared[os.path.relpath(path, REPO_ROOT)] = bad
        assert not undeclared, \
            f"test imports missing from the 'test' extra: {undeclared}"
        assert checked > 50         # walked the whole suite
