"""The package as a whole: the layering of its modules' imports, and the
examples of its README.

Each module of ``src/fdek`` has a layer, and imports only from layers
below its own: ``syntax`` < ``semantics`` < {``bulkeval``, ``tableau``} <
``analysis`` < ``figures`` < ``cli``.  So the imports are acyclic, and the
scalar ``Evaluator`` in ``semantics``, the reference the bulk evaluator
and the prover are checked against, never reaches the code it checks.
``__init__`` and ``__main__`` gather the layers and are exempt.
"""

import ast
import json
import re
from pathlib import Path

import fdek
from fdek import model_from_dict

PACKAGE = Path(fdek.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"

LAYERS = {"syntax": 0, "semantics": 1, "bulkeval": 2, "tableau": 2,
          "analysis": 3, "figures": 4, "cli": 5}
EXEMPT = {"__init__", "__main__"}


def package_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """Each module of the package that ``tree`` imports, with its line:
    relative or absolute, at module level or inside a function.  ``from .
    import x`` and ``from fdek import x`` import ``x``; a name of the
    package that is no module is the package itself, ``__init__``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = ["fdek"] + (node.module.split(".") if node.module else [])
            elif node.module == "fdek" or (node.module or "").startswith("fdek."):
                parts = node.module.split(".")
            else:
                continue
            if len(parts) > 1:
                found.append((node.lineno, parts[1]))
            else:
                found += [(node.lineno, a.name if a.name in LAYERS else "__init__")
                          for a in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "fdek":
                    found.append((node.lineno, parts[1] if len(parts) > 1 else "__init__"))
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS) | EXEMPT


def test_each_module_imports_only_from_the_layers_below_it():
    wrong = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT:
            continue
        for line, target in package_imports(ast.parse(path.read_text())):
            if LAYERS.get(target, len(LAYERS)) >= LAYERS[path.stem]:
                wrong.append(f"{path.name}:{line} imports {target}")
    assert wrong == []


def test_the_gate_reads_every_form_of_import():
    tree = ast.parse(
        "from . import tableau, semantics\n"
        "from .analysis import find_countermodel\n"
        "import fdek.cli\n"
        "from fdek.figures import run_figures\n"
        "from fdek import prove\n"
        "import numpy\n"
        "def f():\n"
        "    from .bulkeval import sweep\n")
    assert sorted(package_imports(tree)) == [
        (1, "semantics"), (1, "tableau"), (2, "analysis"), (3, "cli"), (4, "figures"),
        (5, "__init__"), (8, "bulkeval")]


def readme_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_the_readme_python_examples_run():
    blocks = readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_the_readme_model_file_loads():
    (block,) = readme_blocks("json")
    model = model_from_dict(json.loads(block))
    assert model.frame.worlds == ("w0", "w1")
