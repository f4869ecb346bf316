"""Exact computational workbench for automorphisms of free groups.

Submodules:

* autf     - words, automorphisms, generator families, support/complexity
* lie      - free Lie algebra over Q in the Lyndon basis
* magnus   - truncated Magnus expansion, filtration depth, degree-k images
* exactlin - exact integer linear algebra on labeled tensor spaces
* commgraph- parabolic subgroup handles, commutation test, path builder
* bnscert  - finite-generation certificates (checker and assembler)
* suites   - named verification suites with JSON reports
* cli      - command line entry point
"""

from . import autf, bnscert, commgraph, exactlin, lie, magnus

__all__ = ["autf", "lie", "magnus", "exactlin", "commgraph", "bnscert"]
__version__ = "0.1.0"
