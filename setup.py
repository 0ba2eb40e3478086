"""Legacy setup shim so `pip install -e . --no-use-pep517` works offline.

The environment has no network access and no `wheel` package, so the modern
PEP 517 editable-install path (which builds a wheel) is unavailable.  All
project metadata lives in pyproject.toml; this file only mirrors the package
layout for the legacy develop-mode install.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",  # slots=True dataclasses in sim/packet.py, fluid/network.py
    install_requires=["numpy"],
)
