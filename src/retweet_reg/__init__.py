"""Retweet-count regression toolkit: TSV ingestion, feature engineering,
from-scratch CNN/RNN regressors with hand-derived gradients, Adam training,
and a seven-metric evaluation report.
"""

import os

# a BLAS matmul sums in an order set by its thread count; default to one
# thread, before numpy loads, so that reruns are byte-identical
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
