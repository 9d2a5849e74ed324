"""Packaging for the ``repro`` package (src layout).

Without the ``wheel`` package, editable installs go through
``pip install -e . --no-use-pep517``, which needs this setup.py entry
point; the metadata lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'A Complete Network-On-Chip Emulation"
        " Framework' (DATE 2005): a cycle-level NoC emulation platform"
    ),
    python_requires=">=3.8",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
