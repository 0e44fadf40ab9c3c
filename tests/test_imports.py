"""Every name a module imports is used in it, and every public function,
class or constant has a caller. No linter is installed with the project,
so these checks are tests: each non-`__init__` module under `src/`, and
each test file, is parsed with `ast`, and an imported name that the
file's code and annotations never read fails it, as does, in `src/`, a
public top-level `def`, `class` or assignment that no code of the
program (`src/`, `perfbench/` or `demos/`) reads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_ternary_dataset
from phishguard import cli, robustness
from phishguard.datasets import save_csv

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
# the program's code; a package `__init__` only re-exports, and tests
# are no callers
CALLERS = sorted(p for folder in ("src", "perfbench", "demos")
                 for p in (ROOT / folder).rglob("*.py")
                 if p.name != "__init__.py" and "tests" not in p.relative_to(ROOT).parts)
# public names that no code of the program calls, kept for their readers
UNCALLED = {
    "count_feature_triggers": "the oracle of generate_feature_rich_domains' report",
    "average_fold_coefficients": "the paper's coefficient-based feature selection",
    "select_features_by_coefficient": "the paper's coefficient-based feature selection",
    "concatenate": "README's way to build a mixed-provenance PCS reference",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_every_test_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from dataclasses import dataclass, field\nimport os.path\n\n"
              "@dataclass\nclass A:\n    x: int = 0\n")
    assert unused_imports(source) == ["field (line 1)", "os (line 2)"]


def public_definitions(source: str) -> list[str]:
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def foreign_imports(tree: ast.AST) -> set[str]:
    """The names bound by imports of anything but phishguard."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                      if alias.name.split(".")[0] != "phishguard"}
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] != "phishguard"):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def named(source: str) -> set[str]:
    """The names that `source` reads, bare or as attributes of anything
    but a name imported from outside phishguard (`np.concatenate` reads
    numpy's name, not the program's)."""
    tree = ast.parse(source)
    foreign = foreign_imports(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                names.add(node.attr)
    return names


def unused_public_names(modules: list[str], callers: list[str]) -> list[str]:
    used = set().union(*map(named, callers))
    return sorted(name for source in modules for name in public_definitions(source)
                  if name not in used)


def test_every_public_name_has_a_caller():
    callers = [p.read_text() for p in CALLERS]
    unused = unused_public_names([p.read_text() for p in MODULES], callers)
    assert sorted(set(unused) - UNCALLED.keys()) == []
    # an allowed name that gains a caller leaves the list
    assert sorted(UNCALLED.keys() - set(unused)) == []


def test_the_check_finds_an_unused_public_name():
    module = ("def used():\n    pass\n\ndef _private():\n    pass\n\n"
              "class Unused:\n    def method(self):\n        pass\n\ndef uncalled():\n    pass\n")
    caller = "from phishguard.m import used\nimport phishguard.m\n\nused()\nphishguard.m.method\n"
    assert unused_public_names([module], [caller]) == ["Unused", "uncalled"]


def test_the_check_sees_through_attributes_of_foreign_imports():
    module = "def concatenate():\n    pass\n\ndef mean():\n    pass\n\ndef choice():\n    pass\n"
    caller = ("import numpy as np\nfrom os import path\nfrom . import m\n\n"
              "np.concatenate\nnp.random.choice\npath.mean\nm.choice\n")
    assert unused_public_names([module], [caller]) == ["concatenate", "mean"]


def test_the_check_covers_module_constants():
    module = "READ = 1\nWRITTEN: int = 2\n_PRIVATE = 3\nA = B = 4\n"
    caller = "from phishguard.m import READ\n\nprint(READ, B)\nWRITTEN = 5\n"
    assert unused_public_names([module], [caller]) == ["A", "WRITTEN"]


def test_importing_the_package_loads_no_submodule():
    # `phishguard` re-exports nothing: a subcommand pays only for the
    # modules it imports
    probe = ("import sys, phishguard; print(sorted(name for name in sys.modules "
             "if name == 'numpy' or name.startswith('phishguard.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[]"


def test_fitting_and_information_gain_do_not_import_numpy_ma():
    # np.unique with no return_* flag, np.median and np.setdiff1d import numpy.ma,
    # 8-22 ms and about 1 MB on first use in a process; `serve --dataset`
    # fuses weights from information gain
    probe = ("import sys\n"
             "from conftest import make_ternary_dataset\n"
             "from phishguard.explain.fusion import fuse_weights\n"
             "from phishguard.explain.infogain import information_gain_all\n"
             "from phishguard.metrics import auc_metric, cross_validate\n"
             "from phishguard.models.common import stratified_fold_indices\n"
             "from phishguard.models.linear import train_linear\n"
             "ds = make_ternary_dataset(n=200, seed=1)\n"
             "stratified_fold_indices(ds.y, 5, 0)\n"
             "train_linear(ds)\n"
             "cross_validate(train_linear, ds, {'auc': auc_metric}, k=3)\n"
             "ig = information_gain_all(ds)\n"
             "fuse_weights(ig, ig, alpha=0.5)\n"
             "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "False"


HEAVY = ("server", "robustness", "generate", "context", "explain", "models", "metrics")


def loaded_after(argv: list[str]) -> list[str]:
    """The heavier phishguard modules in `sys.modules` of a fresh process
    after `import phishguard.cli` and, if `argv` is given, `cli.main(argv)`."""
    probe = ("import sys; from phishguard import cli; argv = sys.argv[1:]\n"
             "assert not argv or cli.main(argv) == 0\n"
             f"print([m for m in {HEAVY!r} if 'phishguard.' + m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                         text=True, check=True, env=env).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


@pytest.fixture
def small_csv(tmp_path):
    save_csv(make_ternary_dataset(n=40, seed=1), tmp_path / "d.csv")
    return tmp_path / "d.csv"


def test_the_cli_imports_only_what_its_subcommand_runs(small_csv, tmp_path):
    assert loaded_after([]) == []
    assert loaded_after(["ingest", str(small_csv), "--out", str(tmp_path / "clean.csv")]) == []
    trained = loaded_after(["train", str(small_csv), "--model", "tree", "--folds", "2",
                            "--out", str(tmp_path / "m.json")])
    assert {"models", "metrics"} <= set(trained)
    assert not {"server", "robustness", "generate"} & set(trained)


def test_the_parser_offers_the_robustness_strategies():
    assert cli.STRATEGIES == robustness.STRATEGIES


def fresh_env(**extra) -> dict[str, str]:
    """This process's environment and import path for a child, without
    OPENBLAS_NUM_THREADS unless `extra` sets it."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": os.pathsep.join(sys.path), **extra}


def blas_threads_after(statement: str, **env) -> str:
    """OPENBLAS_NUM_THREADS in a fresh process after `statement`."""
    probe = f"import os\n{statement}\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))"
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=fresh_env(**env)).stdout.strip()


def test_the_cli_starts_single_threaded_blas():
    # no matrix is wide enough for a BLAS thread pool to pay for its start
    assert blas_threads_after("import phishguard.cli") == "1"


def test_the_cli_keeps_a_blas_thread_count_the_user_set():
    assert blas_threads_after("import phishguard.cli", OPENBLAS_NUM_THREADS="3") == "3"


def test_the_library_leaves_the_blas_settings_alone():
    assert blas_threads_after("import phishguard.datasets") == "None"


def test_an_mlp_file_does_not_follow_the_cpu_count(tmp_path):
    # an MLP's bits follow the BLAS thread count, which the CLI fixes
    # unless the user sets it; 2,000 rows are enough for OpenBLAS to
    # split a product over threads where the machine has several CPUs
    save_csv(make_ternary_dataset(n=2000, seed=1), tmp_path / "d.csv")
    files = []
    for env in (fresh_env(), fresh_env(OPENBLAS_NUM_THREADS="1")):
        out = tmp_path / f"mlp{len(files)}.json"
        subprocess.run([sys.executable, "-m", "phishguard.cli", "train", str(tmp_path / "d.csv"),
                        "--model", "mlp", "--folds", "2", "--out", str(out)],
                       capture_output=True, check=True, env=env)
        files.append(out.read_bytes())
    assert files[0] == files[1]
