"""Run ``repro serve`` in this interpreter for the serve workload.

    python3 serve_child.py --cache-dir DIR --out FILE [--trace DIR]

Refuses to start (exit 3) unless the C kernel is loaded, optionally
installs the per-layer ledger, then hands over to the ``repro`` CLI with
an ephemeral port; the CLI prints the bound address on stderr.  After
the server drains on SIGTERM it writes FILE: exit code, whether the C
kernel was still loaded, peak RSS and the number of ledger wrappers.
"""

from __future__ import annotations

import argparse
import json
import sys

from child import peak_rss_mb
from ledger import Ledger, installed_count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    from repro import cli
    from repro.engine import ckernel

    if not ckernel.available():
        print("C kernel unavailable: refusing to serve on the Python "
              "datapath", file=sys.stderr)
        return 3
    ledger = None
    if args.trace:
        ledger = Ledger(args.trace)
        ledger.install()
    code = cli.main(["serve", "--port", "0", "--cache-dir", args.cache_dir])
    if ledger is not None:
        ledger.write()
    report = {
        "code": code,
        "ckernel": ckernel.lib() is not None,
        "peak_rss_mb": peak_rss_mb(),
        "wrappers": installed_count(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
