import os
import subprocess
import sys
from pathlib import Path

import catgraph

SRC = str(Path(catgraph.__file__).resolve().parent.parent)


def test_driver_modules_do_not_import_numpy():
    # numpy comes in only with catgraph.oracles; importing it with the
    # drivers would add tens of milliseconds to every start-up
    code = ("import sys, catgraph, catgraph.walks, catgraph.connectivity; "
            "print('numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
