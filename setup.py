"""Package metadata for ``repro``, the MuonTrap reproduction.

The sources live under ``src/``; the runtime needs only the standard
library.  Install with ``python -m pip install .`` or, for an editable
install (also on offline machines without the ``wheel`` package),
``python setup.py develop``.
"""

import sys
from pathlib import Path

from setuptools import find_packages, setup

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))
from repro import __version__  # noqa: E402  (standard library only)


setup(
    name="repro",
    version=__version__,
    description="A reproduction of MuonTrap (Ainsworth & Jones, ISCA 2020)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
