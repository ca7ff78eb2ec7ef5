"""The README stays in step with the code: its commands parse, and the code it names exists."""

import ast
import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import tucksketch
from tucksketch import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = {
    info.name: importlib.import_module(f"tucksketch.{info.name}")
    for info in pkgutil.iter_modules(tucksketch.__path__)
}
# the first parts of a dotted path that the docs may name: the package, its
# modules and the classes it exports
ROOTS = {
    "tucksketch": tucksketch,
    **MODULES,
    **{name: obj for name in tucksketch.__all__ if isinstance(obj := getattr(tucksketch, name), type)},
}


def bash_commands():
    """Every command line of the README's bash blocks, backslash continuations joined."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.S):
        joined = re.sub(r"\\\n\s*", " ", block)
        for line in joined.splitlines():
            words = shlex.split(line, comments=True)
            if words:
                commands.append(words)
    return commands


def test_readme_tucksketch_commands_parse():
    parser = cli._build_parser()
    commands = [words[1:] for words in bash_commands() if words[0] == "tucksketch"]
    assert len(commands) >= 5
    for argv in commands:
        parser.parse_args(argv)  # a usage error raises
    # the Hilbert sweep, the sparse per-gamma runs and the image comparison
    # are bench commands, and the reconstructions come from image-compress
    sources = {argv[argv.index("--source") + 1] for argv in commands if argv[0] == "bench"}
    assert {"hilbert", "sparse", "image"} <= sources
    assert any(argv[0] == "image-compress" for argv in commands)


# a span of inline code, ``double`` (docstrings) or `single` (both)
_SPAN = re.compile(r"``([^`]+)``|`([^`]+)`")
_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_MISSING = object()


def code_names(text):
    """The names in text's inline code that must resolve in the package.

    They are the names that start with ``_`` and the dotted paths whose first
    part is a key of ROOTS.
    """
    names = []
    for match in _SPAN.finditer(text):
        for name in _NAME.findall(match.group(1) or match.group(2)):
            if name.startswith("_") or ("." in name and name.split(".")[0] in ROOTS):
                names.append(name)
    return names


def _lookup(obj, parts):
    for part in parts:
        obj = getattr(obj, part, _MISSING)
    return obj


def resolves(name):
    """Whether name is an attribute path from ROOTS, or a private name of one of the modules."""
    first, *rest = name.split(".")
    if first in ROOTS:
        return _lookup(ROOTS[first], rest) is not _MISSING
    return any(_lookup(module, [first, *rest]) is not _MISSING for module in MODULES.values())


def docstrings(module):
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return [ast.get_docstring(node) or "" for node in ast.walk(tree) if isinstance(node, kinds)]


def test_readme_names_only_code_that_exists():
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    names = code_names(text)
    assert {"_gram_eigh", "tucker._canonical_signs", "tucksketch.tucker.load_model"} <= set(names)
    assert [name for name in names if not resolves(name)] == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_docstrings_name_only_code_that_exists(module):
    names = [name for doc in docstrings(MODULES[module]) for name in code_names(doc)]
    assert [name for name in names if not resolves(name)] == []


def test_a_removed_name_does_not_resolve():
    assert code_names("the ``_row_basis`` of `linalg._row_basis`") == ["_row_basis", "linalg._row_basis"]
    assert not resolves("_row_basis") and not resolves("linalg._row_basis")
    assert code_names("`x.T` and `np.linalg.qr`, `ApproxConfig.plan`") == ["ApproxConfig.plan"]
    assert resolves("ApproxConfig.sketch_sizes")  # a field whose default is None
