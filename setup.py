"""Setuptools entry point: the ``repro`` package, from ``src/``.

Offline, ``pip install --no-deps --no-build-isolation -e .`` installs it
in editable mode; pip builds that through the ``wheel`` package, so where
``wheel`` is missing ``python setup.py develop`` does the same.  The
version is read from ``src/repro/__init__.py``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = (Path(__file__).resolve().parent / "src" / "repro" / "__init__.py").read_text()

setup(
    name="repro",
    version=re.search(r'^__version__ = "([^"]+)"', INIT, re.MULTILINE).group(1),
    description="Reproduction of SMGCN: syndrome-aware herb recommendation "
    "with multi-graph convolution",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
