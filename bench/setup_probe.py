"""Time what every revspec session pays before its first result.

Imports revspec from the source tree and builds each profile given on the
command line (a builtin name or a JSON profile path), then prints the
elapsed seconds. run.py starts this script several times per run and
reports the median as setup_s.

    python3 bench/setup_probe.py SRC_DIR PROFILE [PROFILE ...]
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import revspec  # noqa: E402

for name_or_path in sys.argv[2:]:
    revspec.resolve_profile(name_or_path)
print(repr(time.perf_counter() - start))
