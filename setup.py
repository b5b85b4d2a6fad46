"""Packaging for the ``repro`` library (the ``src/`` layout).

``pip install .`` installs every package under ``src/`` together with
``spatial/kernels/_kernels.c``: the native kernel provider compiles that
file from beside its module on first use, so an installed copy without
it would fall back to the NumPy provider.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Nearest neighbor searching under uncertainty: "
                "exact PNN engines and their serving stack",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.spatial.kernels": ["_kernels.c"]},
    python_requires=">=3.9",
    install_requires=["numpy"],
)
