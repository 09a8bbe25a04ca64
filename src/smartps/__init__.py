"""Cross-layer path selection for two-path multipath transport.

Modules cover the full pipeline: trace I/O and synthesis (traceio),
attribute statistics (featstats), classification-dataset construction
(dataset), decision-tree / random-forest learning (treelearn), the runtime
path selector and baselines (selector), a deterministic two-path network
simulator (netsim), scripted mobility scenarios and the pretrained model
(scenarios), and the command-line entry point (cli).
"""

__version__ = "0.1.0"
