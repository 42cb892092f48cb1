"""The module layering, read from the source with `ast`: the block engine
(`stemfuse.sweeps`) imports no other stemfuse module, the modules that
run sweeps take the engine from it and not from `wiener`, and
`bsseval.py` stays within its line budget."""

import ast
from importlib import resources

import pytest

PACKAGE = resources.files("stemfuse")
ENGINE = {"_Sweeps", "_Workspace"}
BSSEVAL_MAX_LINES = 509  # the cap the roadmap sets; its Toeplitz solver landed within it


def tree(module):
    return ast.parse(PACKAGE.joinpath(f"{module}.py").read_text())


def stemfuse_imports(module):
    """(imported module, names) of every import of a stemfuse module in `module`."""
    found = []
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from . import x, from .x import y
                found.append((node.module or "", [a.name for a in node.names]))
            elif (node.module or "").split(".")[0] == "stemfuse":
                found.append((node.module.partition(".")[2], [a.name for a in node.names]))
        elif isinstance(node, ast.Import):
            found += [(a.name.partition(".")[2], []) for a in node.names
                      if a.name.split(".")[0] == "stemfuse"]
    return found


def test_the_engine_imports_no_other_stemfuse_module():
    assert stemfuse_imports("sweeps") == []


@pytest.mark.parametrize("module", ["bsseval", "pipeline", "blend", "audio_io"])
def test_sweeping_modules_take_the_engine_from_sweeps_not_wiener(module):
    for source, names in stemfuse_imports(module):
        if source == "wiener":
            assert not ENGINE & set(names), f"{module} imports {ENGINE & set(names)} from wiener"
        if source == "" and "wiener" in names:  # `from . import wiener`, then wiener._Sweeps
            attributes = {node.attr for node in ast.walk(tree(module))
                          if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                          and node.value.id == "wiener"}
            assert not ENGINE & attributes


def test_bsseval_stays_within_its_line_budget():
    lines = PACKAGE.joinpath("bsseval.py").read_text().count("\n")
    assert lines <= BSSEVAL_MAX_LINES
