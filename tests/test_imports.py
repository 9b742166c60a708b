import os
import subprocess
import sys
from pathlib import Path

import catgraph

SRC = str(Path(catgraph.__file__).resolve().parent.parent)


def _loads(modules: str, name: str = "numpy") -> bool:
    """Whether importing `modules` in a fresh interpreter loads module `name`."""
    code = f"import sys, {modules}; print({name!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout.strip() == "True"


def test_driver_modules_do_not_import_numpy():
    # numpy comes in only with catgraph.oracles; importing it with the
    # drivers would add tens of milliseconds to every start-up
    assert not _loads("catgraph, catgraph.walks, catgraph.connectivity")


def test_cli_does_not_import_numpy():
    # the CLI loads catgraph.oracles, and with it numpy, only for --verify
    assert not _loads("catgraph.cli")


def test_cli_does_not_import_the_process_pool():
    # concurrent.futures.process comes in only with `connect --parallel`
    assert not _loads("catgraph.cli", "concurrent.futures.process")
