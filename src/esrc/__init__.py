"""Ergodic sum-rate capacity of zero-forcing MU-MIMO receivers.

Monte Carlo simulation of semi-correlated complex Nakagami-m fading with
banded exponential correlation, per-user post-processing SINR distribution
fitting, and the matching analytic capacity machinery (the closed-form
mean, and the sum-capacity density as a convolution of the users' laws).
The API lives in the
submodules, such as esrc.config, esrc.zf and esrc.analytic; the package
itself holds only __version__.

Importing the package pins BLAS and OpenMP to one thread unless the
environment already sets a count.  This must happen before numpy loads;
once numpy is imported, its BLAS keeps the thread count it started with.
The Monte Carlo kernel forks one worker per CPU, and a second BLAS thread
in each would oversubscribe the cores: on a 2-vCPU host the forked 64x32
test point took 11.8 s with BLAS unpinned and 2.5 s pinned.  Unpinned,
OpenBLAS also runs the stacked Gram products H^H H on both vCPUs, and 626
batched 8x64x32 products took 0.10-1.18 s against 0.07-0.09 s pinned
(nine runs each).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
