"""Clustering substrate (k-means) used by dynamic ensemble selection.

Named ``clustering`` so the serving-fleet namespace
(:mod:`repro.fleet`) is unambiguous: this package is the DES
clustering substrate, not a serving cluster.
"""

from repro.clustering.kmeans import KMeans

__all__ = ["KMeans"]
