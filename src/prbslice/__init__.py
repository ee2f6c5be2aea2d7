"""PRB allocation for 3-layered RAN slicing.

Two independent execution paths over the same windowed-allocation semantics:
a deterministic forward simulator and an SMT-LIB encoding solved by an
external process, cross-checked state for state, with fairness and
PRB-optimality invariants verified on every trace.
"""
