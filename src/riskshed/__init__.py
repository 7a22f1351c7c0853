"""Two-stage stochastic programming with mean-risk objectives.

The package covers the full workflow around risk-averse two-stage models
with binary decisions: problem representation and risk measures
(:mod:`.model`), extensive-form builders (:mod:`.dep`), a shaped
decomposition for the modified excess measure (:mod:`.lshaped`), an
iterative bounding driver for the semideviation measure
(:mod:`.asd_bounds`), two instance families (:mod:`.knapsack`,
:mod:`.mssop`), brute-force oracles for small cases (:mod:`.oracle`),
checksummed file formats (:mod:`.fileio`), and a CLI (:mod:`.cli`).
"""
__version__ = "0.1.0"
