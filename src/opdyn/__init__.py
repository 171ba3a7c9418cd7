"""Opinion-exchange dynamics: simulators, exact oracles, and experiments.

Modules:
    network   -- weighted directed graphs, stationary distributions, the graph file reader
    signals   -- finite/Gaussian private-signal models, the signal cube and stream, the signal file reader
    degroot   -- repeated weighted averaging and its learning probability
    voter     -- neighbor-copying dynamics, exact absorption, two-bit variant
    majority  -- iterated majority, Lyapunov bookkeeping, retention, influences
    bayes     -- exact rational Bayesian agents on networks
    cascade   -- one-shot sequential decisions and information cascades
    harness   -- named experiments, configs, result records, registry
    cli       -- the ``opdyn`` command-line entry point
"""

__version__ = "0.1.0"

from . import bayes, cascade, degroot, harness, majority, network, signals, voter  # noqa: F401
