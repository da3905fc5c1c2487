"""Packaging for ``repro``: the whole configuration lives in this file.

``pip install .`` installs the ``repro`` package from ``src/`` together
with a ``repro`` console script (``repro.cli:main``).  The version is
read from ``src/repro/_version.py`` without importing the package.
Pytest settings live in ``setup.cfg``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "_version.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Approximate agreement algorithms for Byzantine collaborative "
        "learning: a reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
