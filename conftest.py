import os

# The SHA-256 pins of the tests' output files hold under one OpenBLAS kernel,
# since each kernel rounds BLAS products in its own way: Haswell's, which
# every x86-64 CPU with AVX2 runs.  OpenBLAS reads the variable when numpy
# loads it, so it is set here, before any test module imports numpy.
os.environ["OPENBLAS_CORETYPE"] = "Haswell"
