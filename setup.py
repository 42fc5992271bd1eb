"""Legacy setup shim: lets ``pip install -e . --no-use-pep517`` work on
environments without the ``wheel`` package (metadata lives in
pyproject.toml)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "MIRZA: Efficiently Mitigating Rowhammer with Randomization and "
        "ALERT (HPCA 2026) - full reproduction"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
