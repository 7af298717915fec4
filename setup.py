"""Packaging for the TAGLETS reproduction.

Kept as a classic ``setup.py`` so ``pip install -e .`` works on offline
environments without the ``wheel`` package (legacy ``setup.py develop``
path).  The only runtime dependency is NumPy: ``repro`` (and in particular
the ``repro.nn`` training engine) must import with no extras installed,
which ``tests/test_packaging.py`` enforces.  The ``test`` extra declares
what the test suite needs on top.
"""

from setuptools import find_packages, setup

setup(
    name="repro-taglets",
    version="0.2.0",
    description=("Reproduction of TAGLETS: a system for automatic "
                 "semi-supervised learning with auxiliary data (MLSys 2022)"),
    author="paper-repo-growth",
    license="Apache-2.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.20"],
    # What the tier-1 suite imports beyond the package and NumPy
    # (``pip install ".[test]"``); tests/test_packaging.py checks it.
    extras_require={"test": ["pytest", "hypothesis"]},
    classifiers=[
        "Programming Language :: Python :: 3",
        "License :: OSI Approved :: Apache Software License",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
