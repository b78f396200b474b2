"""Package metadata (there is no pyproject.toml / setup.cfg: this is all of it).

The environment used for reproduction has no network access and no
``bdist_wheel`` support; ``pip install -e . --no-use-pep517`` falls back to
``setup.py develop`` via this file.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # 1.20 is the first NumPy with sliding_window_view (topi/reference.py)
    install_requires=["numpy>=1.20"],
)
