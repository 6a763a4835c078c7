"""Packaging shim.

Core depends on numpy alone; the accelerator array namespaces are
*extras* so ``pip install repro[torch]`` / ``repro[cupy]`` matches the
install hints the backend registry and
:class:`repro.backends.MissingDependencyError` print.  The backends
themselves import lazily — installing an extra flips the corresponding
``einsum-torch`` / ``einsum-cupy`` registry entry from "unavailable
(hint)" to usable, with no code changes.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Equivalence checking of noisy quantum circuits via tensor-network "
        "contraction (reproduction of Hong et al., DAC 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        # optional array namespaces for the einsum-* backends
        "torch": ["torch"],
        "cupy": ["cupy"],
    },
    entry_points={
        "console_scripts": ["repro=repro.cli:main"],
    },
)
