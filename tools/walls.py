"""Time the CLI walls of this checkout against another one, side by side.

    python3 tools/walls.py --base PATH [--pairs N] [--only SUBSTR] [--out FILE]

PATH is the root of another tdlclab checkout, for instance an exported
parent commit.  Each case is one CLI command on a spec of
``tools/cli_identity.py`` at a depth n or n + 1, where n + 1 is the
deepest depth of that wall in ROADMAP.md's baseline table.  Every pair
runs the case once per checkout, one after the other and in alternating
order, each in a fresh interpreter with that checkout's ``src`` on
``PYTHONPATH`` in a fresh working directory.  Per run it records the
wall time, the command's own peak RSS (from ``os.wait4``; see
``_LAUNCH``), the stdout bytes and their sha256, and the sha256 of the
certificate that ``certify`` writes.

It prints per case the median time and peak RSS of each side and the
pairs in which the change was lower, with each side's wall-time range
(min-max over its runs) beside the medians.  A wall-time move is
``unresolved`` when the medians differ by no more than the base side's
own spread (max - min; 0 with one pair), else ``lower`` or ``higher``.
Then it prints per wall the change at n + 1 against the base at n.  The
runs, the ranges, the base spread, each move's reading and the machine
(``nproc``, Python version, platform) go to FILE as JSON.  The exit
code is 1 when any pair differs in a hash or an exit code, and 0
otherwise.  The full ladder takes about 100 s per pair on a 2-core
host; ``--only`` keeps the cases whose label contains SUBSTR.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

sys.path[:0] = [str(HERE / "src"), str(HERE / "tests"), str(HERE / "tools")]
from cli_identity import SPECS  # noqa: E402

# (spec, argv before the depth, depth flag, n); each wall runs at n and n + 1
WALLS = [
    ("readme", ["dynamics", "minimal"], "--depth", 8),
    ("readme", ["dynamics", "degree"], "--depth", 8),
    ("readme", ["dynamics", "measure"], "--depth", 13),
    ("lone-axis", ["dynamics", "measure"], "--depth", 10),
    ("two-copy", ["dynamics", "degree"], "--depth", 7),
    ("elements", ["certify", "goodshrink", "--element", "g"], "--depth", 13),
    ("elements", ["certify", "tits-core", "--element", "g"], "--depth", 12),
    ("elements", ["certify", "nub", "--element", "g"], "--depth", 12),
    ("elements", ["certify", "free-semigroup"], "--word-bound", 12),
    ("readme", ["report-local"], "--depths", 5),
]


def cases() -> list[dict]:
    out = []
    for spec, head, flag, n in WALLS:
        for depth in (n, n + 1):
            value = f"1..{depth}" if flag == "--depths" else str(depth)
            argv = [*head[:2], "spec.ini", *head[2:], flag, value]
            if head[0] == "certify":
                argv += ["--out", "cert.json"]
            label = f"{spec}: {' '.join(head)} {flag} {value}"
            out.append({"label": label, "spec": spec, "argv": argv, "wall": (spec, *head),
                        "deeper": depth > n})
    return out


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


# Linux carries a process's RSS high-water mark across fork and exec, so
# a command started from this script would count this script's RSS too.
# A bare interpreter (about 8 MB, below any CLI run) forks the command
# instead, and writes its wall time, its own peak RSS from os.wait4 (in
# KiB) and its exit code to the file named by its first argument.
_LAUNCH = """\
import os, sys, time
began = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - began
with open(sys.argv[1], "w") as f:
    f.write(f"{wall} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}")
"""


def run(root: Path, case: dict, workdir: Path) -> dict:
    """One fresh-interpreter run of ``case`` with ``root``'s sources."""
    workdir.mkdir()
    (workdir / "spec.ini").write_text(SPECS[case["spec"]])
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    stdout, measured = workdir / "stdout", workdir / "measured"
    command = [sys.executable, "-m", "tdlclab.cli", *case["argv"]]
    with open(stdout, "wb") as out, open(workdir / "stderr", "wb") as err:
        subprocess.run([sys.executable, "-S", "-I", "-c", _LAUNCH, str(measured), *command],
                       cwd=workdir, env=env, stdout=out, stderr=err, check=True)
    wall, peak_kib, code = measured.read_text().split()
    return {
        "wall_s": round(float(wall), 4),
        "peak_rss_mb": round(int(peak_kib) / 1024, 1),
        "exit": int(code),
        "stdout_bytes": stdout.stat().st_size,
        "stdout_sha256": _sha256(stdout),
        "cert_sha256": _sha256(workdir / "cert.json"),
    }


_SAME = ("exit", "stdout_sha256", "cert_sha256")


def measure(base: Path, case: dict, pairs: int, tmp: Path, index: int) -> dict:
    runs = {"base": [], "change": []}
    roots = {"base": base, "change": HERE}
    for p in range(pairs):
        order = ("base", "change") if p % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run(roots[side], case, tmp / f"{index}-{p}-{side}"))
    identical = all(
        b[k] == c[k] for b, c in zip(runs["base"], runs["change"]) for k in _SAME
    ) and len({r["stdout_sha256"] for r in runs["change"]}) == 1
    median = {side: {m: statistics.median(r[m] for r in rs) for m in ("wall_s", "peak_rss_mb")}
              for side, rs in runs.items()}
    lower = {m: sum(c[m] < b[m] for b, c in zip(runs["base"], runs["change"]))
             for m in ("wall_s", "peak_rss_mb")}
    walls = {side: [r["wall_s"] for r in rs] for side, rs in runs.items()}
    wall_range = {side: [min(w), max(w)] for side, w in walls.items()}
    move = median["change"]["wall_s"] - median["base"]["wall_s"]
    base_spread = wall_range["base"][1] - wall_range["base"][0]
    wall_move = ("unresolved" if abs(move) <= base_spread
                 else "lower" if move < 0 else "higher")
    return {"label": case["label"], "argv": case["argv"], "identical": identical,
            "median": median, "change_lower_in": lower, "wall_range": wall_range,
            "base_wall_spread": round(base_spread, 4), "wall_move": wall_move, "runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="root of the other checkout")
    parser.add_argument("--pairs", type=int, default=3, help="alternating pairs per case")
    parser.add_argument("--only", default="", help="keep the cases whose label contains this")
    parser.add_argument("--out", type=Path, default=Path("WALLS.json"), help="JSON record")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    todo = [c for c in cases() if args.only in c["label"]]
    if not todo:
        parser.error(f"no case matches {args.only!r}")
    # bytecode for both checkouts, so neither side compiles in its runs
    # whether or not the environment lets Python write it
    for root in (args.base, HERE):
        compileall.compile_dir(root / "src", quiet=1)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(todo):
            got = measure(args.base.resolve(), case, args.pairs, Path(tmp), i)
            results.append(got)
            b, c = got["median"]["base"], got["median"]["change"]
            (b_lo, b_hi), (c_lo, c_hi) = got["wall_range"]["base"], got["wall_range"]["change"]
            status = "same" if got["identical"] else "DIFFER"
            print(f"{status:<7} {case['label']}: {b['wall_s']:.3f} ({b_lo:.3f}-{b_hi:.3f}) -> "
                  f"{c['wall_s']:.3f} ({c_lo:.3f}-{c_hi:.3f}) s, {got['wall_move']} "
                  f"(lower in {got['change_lower_in']['wall_s']}/{args.pairs}), "
                  f"{b['peak_rss_mb']:.1f} -> {c['peak_rss_mb']:.1f} MB "
                  f"(lower in {got['change_lower_in']['peak_rss_mb']}/{args.pairs})", flush=True)
    ladder = []
    for case, got in zip(todo, results):
        if not case["deeper"]:
            continue
        shallow = next((r for k, r in zip(todo, results)
                        if k["wall"] == case["wall"] and not k["deeper"]), None)
        if shallow is None:
            continue
        base, change = shallow["median"]["base"], got["median"]["change"]
        ladder.append({"deeper": case["label"], "change_at_n_plus_1": change, "base_at_n": base})
        print(f"ladder  {case['label']}: change {change['wall_s']:.3f} s / "
              f"{change['peak_rss_mb']:.1f} MB against base at n "
              f"{base['wall_s']:.3f} s / {base['peak_rss_mb']:.1f} MB")
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "pairs": args.pairs,
        "only": args.only,
        "cases": results,
        "ladder": ladder,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    same = sum(r["identical"] for r in results)
    print(f"{same}/{len(results)} identical; record in {args.out}")
    return 0 if same == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
