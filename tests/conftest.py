"""Put the package on the path of the fresh interpreters that some tests start.

``pythonpath`` in pyproject.toml covers only the pytest process itself.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])
