"""Write the reference outputs of every workload whose file is missing.

    python3 perfbench/make_refs.py

References record the program's output at the commit that introduced
them.  A case whose output later differs is a failure to investigate,
so this script never overwrites an existing file.
"""

from __future__ import annotations

import json
import sys

from click.testing import CliRunner

from corpus import REFS, WORKLOADS, reference_text
from worker import import_krlab


def main() -> int:
    cli, skein = import_krlab()
    runner = CliRunner()
    for name, workload in WORKLOADS.items():
        path = REFS / f"{name}.json"
        if path.exists():
            print(f"{path.name}: exists, left alone")
            continue
        refs = {}
        for case in workload.cases:
            skein._memo.clear()
            result = runner.invoke(cli.main, case.argv())
            if result.exit_code != 0:
                print(f"{case.ident}: exit code {result.exit_code}", file=sys.stderr)
                return 1
            refs[case.ident] = reference_text(case, result.stdout)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: {len(refs)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
