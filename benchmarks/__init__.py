"""The paper's shapes, one test per artifact.

Each test regenerates one paper table or ablation in simulated cycles,
prints it paper-style, and asserts the paper's qualitative shape (Ace
never slower than CRL, the fig7b and Table 4 orderings, the §3.3
ladder).  They are tier-1 tests like any other; host time is
``perf/run.py``'s job.
"""
