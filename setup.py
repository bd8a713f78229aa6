"""Setuptools configuration.

The library is pure Python with one hard dependency, numpy: it runs the
weight and timestamp checks of the batch write paths, the Algorithm 2
aggregation and placement, and the packed edge batches sent to process
shard workers.  Vertices are hashed by scalar Python kernels.
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
