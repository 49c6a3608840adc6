"""Test set-up for the benchmark's own tests: pin BLAS threads and import
the package from src/, as run.py does."""

import bootstrap

bootstrap.pin_threads()
bootstrap.add_src_path()
