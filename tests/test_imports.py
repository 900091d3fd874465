"""Every name a module of the package imports is used in that module, and
every top-level function and class it defines is referenced by the program:
the package or the benchmark, not only by tests. Start-up builds only the
named record classes."""

import ast
import functools
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import evprof

MODULES = sorted(p for p in Path(evprof.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_scan_flags_an_unused_name():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# -- every top-level function and class is referenced by the program --------

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py"))]


def name_uses(tree) -> Counter:
    """How often each name, or attribute name, is read or bound in ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced_definitions(module, uses: Counter) -> list[str]:
    """Top-level functions and classes of ``module`` that no name in
    ``uses`` refers to outside their own definition."""
    return sorted(node.name for node in module.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and uses[node.name] == name_uses(node)[node.name])


@functools.cache
def program_uses() -> Counter:
    """Name uses in src/evprof and perfbench/. Uses in tests/ do not count:
    code only tests call belongs in tests/."""
    return sum((name_uses(ast.parse(p.read_text(encoding="utf-8")))
                for p in PROGRAM), Counter())


def test_scan_flags_a_definition_used_only_by_itself():
    module = ast.parse("def f():\n    return f()\n\n"
                       "def g():\n    pass\n\nclass C:\n    pass\n\ng()\n")
    assert unreferenced_definitions(module, name_uses(module)) == ["C", "f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path):
    module = ast.parse(path.read_text(encoding="utf-8"))
    assert unreferenced_definitions(module, program_uses()) == []


# -- one writer ----------------------------------------------------------------

def write_opens(module) -> list[str]:
    """The top-level definitions of ``module`` that call the built-in
    ``open`` with a mode that holds ``w``, ``a`` or ``x``, or is not a
    constant; one name per call."""
    sites = []
    for node in module.body:
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "open"):
                continue
            modes = [*call.args[1:2],
                     *(kw.value for kw in call.keywords if kw.arg == "mode")]
            if any(not isinstance(mode, ast.Constant)
                   or set("wax") & set(str(mode.value)) for mode in modes):
                sites.append(getattr(node, "name", "<module>"))
    return sites


def test_scan_flags_each_open_that_may_write():
    module = ast.parse("def f(p):\n    open(p, 'a')\n    open(p, mode='x')\n"
                       "def g(p):\n    open(p)\n    open(p, 'rb')\n"
                       "def h(p, m):\n    open(p, m)\n"
                       "open('p', 'w')\n")
    assert write_opens(module) == ["f", "f", "h", "<module>"]


def test_only_the_whole_or_absent_writer_opens_a_file_for_writing():
    # every file evprof writes goes through trace.write_whole
    sites = [(path.name, name) for path in MODULES for name in
             write_opens(ast.parse(path.read_text(encoding="utf-8")))]
    assert sites == [("trace.py", "write_whole")]


# -- the record classes --------------------------------------------------------

RECORD_CLASSES = sorted([
    *(f"evprof.trace.{name}" for name in (
        "ApiPayload", "Diagnostic", "FieldRef", "ImageLoadPayload",
        "InsnPayload", "MemPayload", "MetaPayload", "ProcessStartPayload",
        "RegionAllocPayload", "RegionFreePayload", "StructLayout",
        "ThreadStartPayload", "TraceEvent", "Value")),
    "evprof.memory.MemoryRegion", "evprof.memory.WatchPoint",
    "evprof.injection.RouteResult",
    *(f"evprof.catalog.{name}" for name in (
        "DetectionRecord", "Effect", "RunConfig", "TechniqueRule")),
    "evprof.profiler.SampleReport",
])


def test_start_up_builds_only_the_named_record_classes():
    # each dataclass costs start-up time to build; a new one is a
    # deliberate edit of this list. -S keeps site hooks out.
    code = ("import dataclasses, sys, evprof.cli\n"
            "print('\\n'.join(sorted(\n"
            "    f'{name}.{value.__name__}'\n"
            "    for name, module in list(sys.modules.items())\n"
            "    if name.startswith('evprof')\n"
            "    for value in vars(module).values()\n"
            "    if isinstance(value, type) and value.__module__ == name\n"
            "    and dataclasses.is_dataclass(value))))")
    env = dict(os.environ, PYTHONPATH=str(Path(evprof.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == RECORD_CLASSES


# -- the exception classes -----------------------------------------------------

# a malformed input file, a usage error, and the overlap the memory tests
# read; any other failure is a built-in exception
EXCEPTION_CLASSES = sorted([
    "evprof.catalog.ConfigError", "evprof.memory.RegionOverlapError",
    "evprof.trace.TraceError",
])


def test_the_package_defines_only_the_named_exception_classes():
    defined = []
    for path in MODULES:
        module = importlib.import_module(f"evprof.{path.stem}")
        defined += [f"{module.__name__}.{value.__name__}"
                    for value in vars(module).values()
                    if isinstance(value, type)
                    and issubclass(value, BaseException)
                    and value.__module__ == module.__name__]
    assert sorted(defined) == EXCEPTION_CLASSES
