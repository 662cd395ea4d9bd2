"""Setuptools entry point.

A plain setup.py (no pyproject.toml) so `pip install -e . --no-use-pep517`
works in offline environments that lack the `wheel` package (PEP 517
editable installs require building a wheel).

numpy is a hard install dependency: the deterministic RNG streams are
built on ``numpy.random.Generator`` and the batch sampling engine
(``repro.services.vectorized``) draws fused arrays through it.
"""

from setuptools import find_packages, setup

setup(
    name="repro-mlsysim",
    version="3.17.0",
    description=("Simulated cloud incident benchmark: apps, faults, "
                 "telemetry, and agent evaluation on a virtual clock"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
