"""Run the suite with one BLAS thread, as `import esrc` sets up the CLI.

This module is imported before any test module, and so before numpy
loads, while the environment still decides its BLAS thread count.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
