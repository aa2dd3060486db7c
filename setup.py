"""Legacy setuptools entry point.

The offline environments this repository targets may lack the ``wheel``
package that PEP 517 editable installs require; keeping a ``setup.py`` lets
``pip install -e . --no-use-pep517`` (or ``python setup.py develop``) work
there.  All metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # Ship the PEP 561 marker so downstream type checkers see our annotations.
    package_data={"repro": ["py.typed"]},
    include_package_data=True,
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
