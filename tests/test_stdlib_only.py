"""The package, the demos and README's library example run on the standard library alone.

Each run is a fresh ``python -S -W error`` with only src/ on the path: -S
leaves site-packages off it, so a third-party import fails even where the
package is installed, and -W error fails any warning.  Every import in
src/ sits at module level, so importing each module covers them all.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_bare(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-S", "-W", "error", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)  # fmt: skip


def test_every_module_imports_without_site_packages():
    proc = run_bare("-c", "import importlib, pkgutil, gptrank\n"
                          "for mod in pkgutil.iter_modules(gptrank.__path__):\n"
                          "    importlib.import_module(f'gptrank.{mod.name}')")  # fmt: skip
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_without_site_packages(demo):
    # the demos use the public API, so a deleted export breaks one here
    proc = run_bare(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_prints_the_verdict_it_shows(tmp_path):
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    example = tmp_path / "example.py"
    example.write_text(section.split("```python\n", 1)[1].split("```", 1)[0])
    proc = run_bare(str(example))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "NOT DISTINGUISHABLE\n"
