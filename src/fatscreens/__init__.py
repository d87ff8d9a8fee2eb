"""Fatgraph combinatorics, screens, lambda-length geometry and holonomy."""

__version__ = "0.1.0"
