"""stratacheck: exact-integer verification of classical enumerative geometry.

The toolkit recomputes, in arbitrary-precision integer arithmetic, the
bookkeeping behind a stratified Euler-characteristic computation: invariant
rings of diagonal group actions, quotient-singularity classification,
Pluecker and Riemann-Hurwitz arithmetic, the 27-lines configuration, and the
stratification ledger itself, with paper-versus-derived discrepancy
reporting.

Names are imported from the modules that define them, for example
``from stratacheck.ledger import paper_ledger``; the package itself holds
only the version.
"""

__version__ = "0.1.0"
