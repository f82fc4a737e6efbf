"""Source-level lint: no ``assert`` statement in the package, no name a
package module imports with ``from ... import`` and never reads, no function,
class or method that nothing else in the package reaches, no import of
``mpmath`` anywhere in the package, an Euler engine that imports no interval
code, no ``mpf(str(...))`` round trip, no read of the process environment,
no word evaluated outside a representation's table but in ``knotgroup`` and
the pretzel identities, no census fact read past the knot's hypotheses
record, a pretzel module that imports neither ``complex_roots`` nor a
private name, a CLI that imports nothing from the Euler engine, no
``os._exit`` but in the CLI's entry point and the pool's forked child, and
every function the benchmark tracer wraps still exists.

``python -O`` strips asserts, so an assert can never stand in for a runtime
check; invariants raise a named ``GeodesicaError`` instead.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import geodesica

PACKAGE = Path(geodesica.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_no_assert_statements_in_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_every_traced_function_resolves():
    # read TRACED from the source, so the benchmark directory stays untouched
    # (no import, no bytecode cache); resolve each name the way the tracer's
    # install() does, which raises LookupError on a name that is gone
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert traced
    missing = []
    for _, module, path in traced:
        owner = importlib.import_module(f"geodesica.{module}")
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        if not callable(vars(owner).get(attr)):
            missing.append(f"{module}.{path}")
    assert not missing, f"traced functions not in the package: {missing}"


def _unused_from_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """Names bound by ``from ... import`` that nothing in the module reads;
    quoted annotations count as reads of the names they spell."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        # an argument's or assignment's annotation, or a function's return one
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used.update(
                n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                if isinstance(n, ast.Name)
            )
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_no_unused_from_imports_in_package():
    # __init__.py binds names to re-export them, so it is exempt
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line} {name}"
        for path in modules
        for name, line in _unused_from_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"names imported and never used: {found}"


def test_unused_import_detector():
    tree = ast.parse(
        "from a import b, c as d, e, g\n"
        "from __future__ import annotations\n"
        "def f(x: 'e') -> 'g':\n"
        "    return b\n"
    )
    assert _unused_from_imports(tree) == [("d", 1)]


def _definitions(tree: ast.Module):
    """(qualified name, node) for each top-level function and class and each
    method of a top-level class but dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _annotation_names(ann) -> set[str]:
    """The names an annotation spells, inside string annotations too."""
    names = set()
    for node in ast.walk(ann) if ann is not None else ():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _uses(node: ast.AST, methods: dict[str, set[str]], cls: str | None = None) -> Counter:
    """How often node reaches each definition, keyed ``f``/``C`` for a
    top-level name and ``C.m`` for a method.  A name, an attribute or an
    import alias reaches the top-level definition of its name (a receiver
    may be a module).  An attribute ``r.m`` reaches ``C.m`` alone when r is
    ``self``/``cls`` in a method of C, the name C, or a parameter or
    annotated variable whose annotation names C; any other receiver
    reaches every class in ``methods[m]``, the classes that define m."""
    uses = Counter()

    def receiver_classes(recv, candidates, env, cls):
        if not isinstance(recv, ast.Name):
            return set()
        if recv.id in ("self", "cls") and cls:
            return {cls} & candidates
        if recv.id in candidates:
            return {recv.id}
        return env.get(recv.id, set()) & candidates

    def visit(node, cls, env):
        if isinstance(node, ast.ClassDef):
            for child in node.bases + node.keywords + node.decorator_list:
                visit(child, cls, env)
            for child in node.body:
                visit(child, node.name, env)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            env = dict(env)
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    env[arg.arg] = _annotation_names(arg.annotation)
            for sub in ast.walk(node):
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    env[sub.target.id] = _annotation_names(sub.annotation)
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.alias):
            uses[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
            candidates = methods.get(node.attr, set())
            for owner in receiver_classes(node.value, candidates, env, cls) or candidates:
                uses[f"{owner}.{node.attr}"] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, cls, env)

    visit(node, cls, {})
    return uses


def _unreached_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """Definitions nothing reaches outside their own body, across all the
    modules given; a method is reached as ``_uses`` resolves receivers."""
    methods = {}
    for tree in modules.values():
        for qualname, _ in _definitions(tree):
            owner, _, name = qualname.rpartition(".")
            if owner:
                methods.setdefault(name, set()).add(owner)
    total = Counter()
    for tree in modules.values():
        total.update(_uses(tree, methods))
    return [
        f"{module}:{node.lineno} {qualname}"
        for module, tree in modules.items()
        for qualname, node in _definitions(tree)
        if total[qualname] == _uses(node, methods, qualname.rpartition(".")[0] or None)[qualname]
    ]


# public names nothing in the package calls, kept on purpose
UNREACHED_ALLOWED = {
    "riley_polynomial": "the benchmark tracer wraps it (knotgroup.riley_polynomial)",
    "verify_subgroup_identities": "acceptance API: the 7_4 subgroup identities",
    "UniqSystem.constants": "acceptance API: the j=2 system's constants",
    "tangency_via_shared_point": "the exact check that chain circles touch at a shared point",
    "Word.to_string": "inverse of Word.from_string, the census text form of a word",
}


def test_no_unreached_definitions_in_package():
    # __init__.py only re-exports, so its imports reach nothing
    modules = {
        str(path.relative_to(PACKAGE.parent)): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
    }
    assert modules
    unreached = _unreached_definitions(modules)
    found = [entry for entry in unreached if entry.split(" ")[1] not in UNREACHED_ALLOWED]
    assert not found, f"definitions nothing else in the package reaches: {found}"
    # an allowed name the package has come to reach no longer needs its entry
    stale = set(UNREACHED_ALLOWED) - {entry.split(" ")[1] for entry in unreached}
    assert not stale, f"allowed as unreached but reached now: {sorted(stale)}"


def test_unreached_definitions_detector():
    modules = {
        "a.py": ast.parse(
            "def used(): pass\n"
            "def lonely(): return lonely()\n"
            "class C:\n"
            "    def __repr__(self): return ''\n"
            "    def m(self): pass\n"
            "    def n(self): return self.n()\n"
        ),
        "b.py": ast.parse(
            "from a import used as u, C\n"
            "x = C().m\n"
        ),
    }
    assert _unreached_definitions(modules) == ["a.py:2 lonely", "a.py:6 C.n"]


def test_unreached_methods_resolve_their_receivers():
    # C and D share every method name; each use of C's below names its
    # receiver, so only the unannotated y.a reaches D's method too
    modules = {
        "a.py": ast.parse(
            "class C:\n"
            "    def a(self): return self.b()\n"
            "    def b(self): pass\n"
            "    def c(self): pass\n"
            "    def d(self): pass\n"
            "class D:\n"
            "    def a(self): pass\n"
            "    def b(self): pass\n"
            "    def c(self): pass\n"
            "    def d(self): pass\n"
        ),
        "b.py": ast.parse(
            "from a import C, D\n"
            "def f(x: 'C', y): return C.c(x), x.d(), y.a()\n"
            "f(C(), None)\n"
        ),
    }
    assert _unreached_definitions(modules) == ["a.py:8 D.b", "a.py:9 D.c", "a.py:10 D.d"]


def _names(tree: ast.AST) -> set[str]:
    """Every name a module spells: as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name.split(".")[-1], node.asname)))
    return names


# MatrixRep.word_matrix, the one table of a representation's words, and the
# pretzel identities over Q[z] evaluate words from generator images; every
# other module reads a representation's words from its table
WORD_EVALUATORS = {"knotgroup.py", "pretzel.py", "__init__.py"}


def test_only_knotgroup_and_pretzel_evaluate_words():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        str(path.relative_to(PACKAGE.parent))
        for path in modules
        if path.name not in WORD_EVALUATORS
        and "evaluate_word" in _names(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"modules that evaluate words outside a table: {found}"


def test_names_detector():
    tree = ast.parse(
        "from .knotgroup import evaluate_word as ev\n"
        "import geodesica.knotgroup\n"
        "m = knotgroup.word_matrix(w)\n"
    )
    assert {"evaluate_word", "ev", "knotgroup", "word_matrix", "m", "w"} <= _names(tree)


def _mpmath_imports(tree: ast.AST) -> list[int]:
    """Lines that import ``mpmath`` or one of its submodules or names."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(n == "mpmath" or n.startswith("mpmath.") for n in names):
            lines.append(node.lineno)
    return lines


def test_no_mpmath_in_package():
    # every certified number is an integer dyadic interval; mpmath is a
    # test oracle only
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in modules
        for line in _mpmath_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"mpmath imported in the package: {found}"


def test_mpmath_import_detector():
    tree = ast.parse(
        "import mpmath.libmp\n"
        "from mpmath.libmp import mpi_add\n"
        "import os, mpmath as mp\n"
        "from mpmath import iv\n"
        "import mpmathx\n"
        "from .mpmath import iv\n"
        "from . import intervals\n"
        "x = mp.libmp.BACKEND\n"
    )
    assert _mpmath_imports(tree) == [1, 2, 3, 4]


def _imported_modules(tree: ast.AST, package: str) -> set[str]:
    """Absolute names of the modules a module of ``package`` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            names.add(module)
            # "from . import intervals" and "from mpmath import libmp" bind modules
            names.update(f"{module}.{a.name}" for a in node.names)
    return names


def test_eulerclass_imports_no_interval_code():
    # the Euler engine decides signs in K exactly; intervals stay out of it
    tree = ast.parse((PACKAGE / "eulerclass.py").read_text())
    imported = _imported_modules(tree, "geodesica")
    found = sorted(
        name for name in imported
        if name.split(".")[0] == "mpmath" or name.startswith("geodesica.intervals")
    )
    assert not found, f"eulerclass imports interval code: {found}"
    assert "geodesica.numfield" in imported


def test_imported_modules_detector():
    tree = ast.parse(
        "import mpmath as mp\n"
        "from .intervals import iv\n"
        "from . import intervals\n"
        "from .numfield import RealPlace\n"
    )
    assert {"mpmath", "geodesica.intervals", "geodesica.numfield"} <= _imported_modules(
        tree, "geodesica"
    )


def _mpf_str_round_trips(tree: ast.AST) -> list[int]:
    """Lines that build an mpf (``mpf``, ``mp.mpf``, ``iv.mpf``, ...) from a
    ``str(...)`` call: both conversions round to nearest, so a bound that
    passes through them can come out on the wrong side."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "mpf" and any(
            isinstance(a, ast.Call) and getattr(a.func, "id", None) == "str" for a in node.args
        ):
            lines.append(node.lineno)
    return lines


def test_no_mpf_str_round_trip_in_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in modules
        for line in _mpf_str_round_trips(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"mpf(str(...)) round trips in the package: {found}"


def test_mpf_str_round_trip_detector():
    tree = ast.parse(
        "r = mp.mpf(str(w * n))\n"
        "r = mpf(str(x))\n"
        "r = iv.mpf(str(x))\n"
        "r = mp.mpf(x)\n"
        "s = str(mp.mpf(x))\n"
        "y = iv.mpf([str(lo), str(hi)])\n"
        "z = mp.mpc(str(x))\n"
    )
    assert _mpf_str_round_trips(tree) == [1, 2, 3]


_ENVIRONMENT = {"environ", "getenv", "putenv"}


def _environment_uses(tree: ast.AST) -> list[int]:
    """Lines that reach the process environment through ``os.environ``,
    ``os.getenv`` or ``os.putenv``, or import one of them from ``os``."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENVIRONMENT
            and getattr(node.value, "id", None) == "os"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(a.name in _ENVIRONMENT for a in node.names)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_package_reads_no_environment():
    # the results do not depend on settings: every decision escalates its
    # precision until it certifies
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in modules
        for line in _environment_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"the package reads the environment: {found}"


def test_environment_use_detector():
    tree = ast.parse(
        "import os\n"
        "cap = os.environ.get('CAP')\n"
        "from os import getenv, path\n"
        "os.putenv('CAP', '1')\n"
        "p = os.path.join('a', 'b')\n"
        "environ = {}\n"
        "x = settings.environ\n"
    )
    assert _environment_uses(tree) == [2, 3, 4]


# the verdict's facts come from one record per knot, ``KnotRecord.hypotheses``,
# which ``eulerclass`` defines and builds; no other module reads them past it
FACT_OWNER = "eulerclass.py"
CENSUS_FACTS = {"genus", "fibered", "manual_field_flags"}


def _census_fact_reads(tree: ast.AST, owner: bool) -> list[int]:
    """Lines that read ``known_unique`` other than as
    ``hypotheses.known_unique`` and, unless the module is the record's
    owner, lines that read an attribute ``genus``, ``fibered`` or
    ``manual_field_flags``."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        receiver = getattr(node.value, "attr", getattr(node.value, "id", None))
        if (node.attr == "known_unique" and receiver != "hypotheses") or (
            node.attr in CENSUS_FACTS and not owner
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_census_facts_are_read_through_the_hypotheses_record():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in modules
        for line in _census_fact_reads(
            ast.parse(path.read_text(), filename=str(path)), path.name == FACT_OWNER
        )
    ]
    assert not found, f"census facts read past the hypotheses record: {found}"


def test_census_fact_read_detector():
    tree = ast.parse(
        "g = record.genus\n"
        "record.genus = 2\n"
        "u = record.hypotheses.known_unique\n"
        "v = hypotheses.known_unique.value\n"
        "w = record.known_unique\n"
        "f = rec.manual_field_flags['x']\n"
        "h = facts.fibered.value\n"
        "KnotRecord(known_unique=True, genus=1)\n"
    )
    assert _census_fact_reads(tree, owner=False) == [1, 5, 6, 7]
    assert _census_fact_reads(tree, owner=True) == [5]


def _complex_root_or_private_imports(tree: ast.AST) -> list[str]:
    """``complex_roots`` and the underscored names a module imports."""
    return sorted(
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if any(name == "complex_roots" or name.startswith("_")
               for name in (alias.name.split(".")[-1], alias.asname or ""))
    )


def test_pretzel_imports_no_complex_roots_and_no_private_name():
    # the psi census counts its roots on remainder chains through polycore's
    # public counts; Durand-Kerner serves only a field's geometric place
    tree = ast.parse((PACKAGE / "pretzel.py").read_text())
    found = _complex_root_or_private_imports(tree)
    assert not found, f"pretzel imports {found}"


def test_complex_root_or_private_import_detector():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from .polycore import RatPoly, complex_roots, _sign_at\n"
        "from .polycore import sturm_chain as _chain\n"
        "import geodesica._private\n"
        "from .numfield import NumberField\n"
    )
    assert _complex_root_or_private_imports(tree) == [
        "_chain", "_sign_at", "complex_roots", "geodesica._private",
    ]


def test_cli_imports_nothing_from_eulerclass():
    # every subcommand prints what a pipeline check returns, euler too
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert "geodesica.eulerclass" not in _imported_modules(tree, "geodesica")


def test_eulerclass_import_detector():
    for source in ("from .eulerclass import euler_tuple\n", "from . import eulerclass\n",
                   "import geodesica.eulerclass as ec\n"):
        assert "geodesica.eulerclass" in _imported_modules(ast.parse(source), "geodesica")
    tree = ast.parse("from .pipeline import euler_check\nfrom . import numfield\n")
    assert "geodesica.eulerclass" not in _imported_modules(tree, "geodesica")


# the functions that may end the process without its teardown: the CLI's
# entry point, once the output is flushed, and the forked child of the pool,
# which must never run the parent's code
OS_EXIT_CALLERS = ["cli.py entry", "pipeline.py _entries"]


def _os_exit_callers(tree: ast.AST) -> list[str]:
    """The innermost function or class around each call of ``_exit``, as
    ``os._exit`` or by a bare name, or ``<module>`` at the top level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) == "_exit":
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_entry_and_the_forked_child_call_os_exit():
    found = sorted(
        f"{path.relative_to(PACKAGE)} {where}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for where in _os_exit_callers(ast.parse(path.read_text(), filename=str(path)))
    )
    assert found == OS_EXIT_CALLERS


def test_os_exit_caller_detector():
    tree = ast.parse(
        "import os\n"
        "from os import _exit\n"
        "def f():\n"
        "    os._exit(0)\n"
        "class C:\n"
        "    def g(self):\n"
        "        def h():\n"
        "            _exit(1)\n"
        "        sys.exit(2)\n"
        "os._exit(3)\n"
    )
    assert _os_exit_callers(tree) == ["f", "h", "<module>"]
