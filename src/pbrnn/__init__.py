"""Patch-based recurrent sequence classification for multi-temporal imagery.

Subpackages by concern: core_math (kernels), recurrent_nets (LSTM cell and
BPTT), baseline_nets (feedforward and fusion baselines), optimizer
(ADAM + training loop), raster_data (scene model and container I/O), sampling
(patch sequences and training-set extraction), assessment (error matrices and
kappa statistics), synthetic (desk-scale scene generator), cli (command-line
front end).
"""

__version__ = "0.1.0"
