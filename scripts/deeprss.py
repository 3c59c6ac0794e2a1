"""Peak memory of a deep recursion, per tier, and its bytes per level.

    python3 scripts/deeprss.py CHECKOUT N

Writes the program `down (!N)`, a non-tail recursion N + 1 applications
deep with one `let !` per level, and runs `mfl run` (the generated tier
once the body is hot) and `mfl run --checked` (the closures) on it with
`mfl` imported from CHECKOUT's `src/`, each in a fresh process, and each
once more on `down (!0)`. Prints one JSON line: for each mode, the
child's peak RSS (`ru_maxrss`, kB) at N and at 0, and the bytes per
level between them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = ("val down = mfun f (a : !int) : int is let !n = a in "
       "return (if n == 0 then 0 else f (!(n - 1))) end end main down (!{})\n")


def peak_kb(src: Path, n: int, flags: list) -> int:
    """The peak RSS, in kB, of `mfl run` on `down (!n)` in a fresh process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "down.mfl"
        path.write_text(SRC.format(n))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        with subprocess.Popen([sys.executable, "-m", "mfl", "run", str(path), *flags],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT) as proc:
            _, status, usage = os.wait4(proc.pid, 0)  # this child's rusage alone
            proc.returncode = os.waitstatus_to_exitcode(status)
            out = proc.stdout.read().decode()
    if proc.returncode != 0:
        sys.exit(f"mfl run {' '.join(flags)} on down (!{n}) failed: {out}")
    return usage.ru_maxrss


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    src, n = Path(sys.argv[1]).resolve() / "src", int(sys.argv[2])
    row: dict = {"checkout": str(src.parent), "n": n}
    for mode, flags in (("run", []), ("checked", ["--checked"])):
        deep, base = peak_kb(src, n, flags), peak_kb(src, 0, flags)
        row[mode] = {"peak_rss_kb": deep, "base_rss_kb": base,
                     "bytes_per_level": round((deep - base) * 1024 / max(n, 1))}
    print(json.dumps(row))


if __name__ == "__main__":
    main()
