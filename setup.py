"""Setuptools shim.

The offline evaluation environment has no ``wheel`` package, so PEP 660
editable installs cannot build an editable wheel.  This shim lets
``pip install -e .`` fall back to the legacy ``setup.py develop`` path.

numpy is the one runtime requirement: it backs the columnar index, the
streaming walker population, the heavy-hitter sketch and the batched
range filter.  The extras declare dev tooling (CI installs them
explicitly so its pip cache keys on this file):

* ``test`` / ``bench`` — what the CI tier-1 and bench jobs install.
"""

from setuptools import find_packages, setup

setup(
    name="repro-hls",
    version="0.10.0",
    description="Hierarchical location service reproduction (ICDCS '02)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "hypothesis"],
        "bench": ["pytest", "pytest-benchmark"],
    },
)
