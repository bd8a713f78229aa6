"""Setuptools configuration.

The library is pure Python with one hard dependency, numpy: it runs the
batch paths (vectorized hashing and probing, the Algorithm 2 aggregation,
``query_batch`` endpoint hashing) and the packed edge batches sent to
process shard workers.
"""

from setuptools import find_packages, setup

setup(
    name="repro-higgs",
    version="0.10.0",
    description=("HIGGS temporal graph stream summarization: "
                 "aggregated B-tree of compressed matrices"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
