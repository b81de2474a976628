"""The `mzkick` command: both `python -m mzkick` and the installed `mzkick`
script run `run`, which sets two process policies before numpy loads and then
hands the arguments to `cli.main`.

- **Freed memory stays in the process.** glibc's allocator maps a block above
  its mmap threshold in afresh and unmaps it when it is freed. numpy 2.4.6's
  pocketfft keeps no plan cache, so each `np.fft.fft` or `np.fft.ifft` of a
  2^22-point array allocates about 128 MiB (a 64 MiB twiddle plan and a
  64 MiB scratch buffer) and faults in 32,769 fresh pages. With mmap off
  (`M_MMAP_MAX` 0; the 64 MiB blocks are above the 32 MiB ceiling of the
  threshold, so raising it is not enough) and no trim below 1 GiB, the
  second transform and every later grid pass reuse pages already mapped.
  A `single-photon` run at 2^22 points then takes about 41k minor faults
  instead of 96k-141k and half the system time, for about 1% more peak RSS.
  Where no `mallopt` symbol is found, the allocator keeps its defaults.
- **No idle BLAS pool.** mzkick makes no BLAS call, so OpenBLAS gets one
  thread unless `OPENBLAS_NUM_THREADS` is already set; its idle workers
  otherwise spin for about 0.1 s of CPU after import.

Neither changes any arithmetic, so every output byte is the same. Importing
`mzkick` or `mzkick.cli`, or calling `cli.main`, sets neither policy, so
tests and processes that embed mzkick keep their own.
"""

import ctypes
import os

M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter numbers
M_MMAP_MAX = -4


def run(argv: list[str] | None = None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        mallopt = ctypes.CDLL(None).mallopt  # the running process's own symbols
    except (OSError, AttributeError):  # not a glibc process: keep the allocator's defaults
        pass
    else:
        mallopt(M_MMAP_MAX, 0)
        mallopt(M_TRIM_THRESHOLD, 2**30)
    from . import cli

    return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(run())
