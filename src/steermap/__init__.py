"""Constructive maps between nonlocality, steering and entanglement.

The package builds explicit finite hidden-variable models for convex
mixtures of bipartite qudit-qubit states, decides the exact feasibility
region of the mixing parameters, and ships the witnesses needed to see
the resulting hierarchy implications on concrete state families.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
