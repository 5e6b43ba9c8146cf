"""Packaging for the ``repro`` package (sources under ``src/``).

Install with ``pip install .`` (or ``pip install -e .``); this puts the
``repro`` command on the path. The version is read from
``repro.__version__`` without importing the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description=("Noise-adaptive compiler mappings for NISQ computers: "
                 "a reproduction of Murali et al., ASPLOS 2019"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
