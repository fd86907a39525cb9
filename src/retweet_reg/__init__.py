"""Retweet-count regression toolkit: TSV ingestion, feature engineering,
from-scratch CNN/RNN regressors with hand-derived gradients, Adam training,
and a seven-metric evaluation report.
"""

import os

# a BLAS matmul sums in an order set by its thread count; default to one
# thread, before numpy loads, so that reruns are byte-identical
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# glibc's mallopt parameter numbers (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# glibc raises both thresholds only when it frees a large mmapped block.
# A training step's largest such block is small, so its trim threshold
# stays near 4 MB and every step returns its freed arrays to the kernel
# and faults them back in: hundreds of page faults a cnn/combined step.
# 32 MB is glibc's own ceiling for its dynamic mmap threshold on 64-bit,
# and the largest value mallopt takes. 128 MB is the smallest trim
# threshold tried that keeps a cnn or rnn step at a 30,000-word
# vocabulary free of faults (64 and 96 MB left 2,000 and 1,300 a step);
# it is how much freed heap the process may keep instead of returning it.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 128 * 1024 * 1024


def glibc() -> bool:
    """Whether the C library is glibc. Reads no file, unlike
    platform.libc_ver()."""
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False


def keep_freed_memory() -> bool:
    """Fix glibc's heap thresholds, so that the memory a training step
    frees stays in the heap for the next step. Setting either one turns
    off glibc's dynamic thresholds, so both are set. Returns whether
    both were; without glibc it does nothing."""
    if not glibc():
        return False
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return bool(mmap_set and trim_set)


keep_freed_memory()

__version__ = "0.1.0"
