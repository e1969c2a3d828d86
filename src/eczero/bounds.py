"""Input bounds that the CLI's option defaults and help text print.

The layers that enforce them (localpoints, rational, survey) import them
from here, and so does `eczero.cli`; this module imports nothing, so the
CLI can read them without loading those layers.
"""

# p-adic digits of a lift or a decomposition: the default, and the largest a
# caller may ask of the local layer.  A lift's time grows about as N^2 at N
# digits: ~0.5 s at p = 223 and N = 1024 on one Xeon vCPU.
DEFAULT_PRECISION = 16
MAX_PRECISION = 1024

# Point-search height bounds: the survey's default and the largest search.
# The row cache holds ~180 H bytes at height H: ~180 MB at the cap.
DEFAULT_HEIGHT = 10**4
MAX_HEIGHT = 10**6
