"""Benchmark for the docinsight_ray retrieval engine (see README.md)."""
