"""Compare CLI output of this checkout with another one, byte for byte.

    python3 tools/cli_identity.py --base PATH

PATH is the root of another tdlclab checkout, for instance an exported
parent commit.  Each case below runs once per checkout, both at the same
time, with that checkout's ``src`` on ``PYTHONPATH`` in a fresh working
directory: a CLI case as ``python3 -m tdlclab.cli`` next to the spec
file, a demo case as the checkout's own ``demos/0*.py`` script.  The
demos reach library calls that no CLI command makes.  Stdout, stderr,
the exit code and the bytes written to ``--out cert.json`` (which every
``certify`` case gets, and other cases may name) must be identical.
One line is printed per case, then a count; the exit code is 0 when
every case is identical and 1 otherwise.
"""
from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.relative_to(HERE).as_posix() for p in (HERE / "demos").glob("0*.py"))

sys.path[:0] = [str(HERE / "src"), str(HERE / "tests")]
from test_cli import (  # noqa: E402
    LONE_AXIS, ROOTED_BINARY, ROTONLY, TWOCOPY, US3, US3_ELEMENTS, US3_WORD,
)

# rooted degree-5 trees over the non-soluble Sym(5) and Alt(5)
ROOTED_SYM5 = """\
[tree]
kind = rooted
degree = 5

[local_group]
generators = (0 1), (0 1 2 3 4)
"""
ROOTED_ALT5 = ROOTED_SYM5.replace("(0 1), (0 1 2 3 4)", "(0 1 2), (2 3 4)")
# a rooted degree-7 tree over A4 x C3, whose ordered composition factors
# follow the tie-break between maximal normal subgroups of index 3
ROOTED_A4XC3 = ROOTED_SYM5.replace("degree = 5", "degree = 7").replace(
    "(0 1), (0 1 2 3 4)", "(0 1 2), (1 2 3), (4 5 6)")
# a rooted degree-9 tree over A5 x C4, whose Melnikov subgroup meets
# G'G^2 = A5 x C2 with the maximal C4 of index 60
ROOTED_A5XC4 = ROOTED_SYM5.replace("degree = 5", "degree = 9").replace(
    "(0 1), (0 1 2 3 4)", "(0 1 2), (2 3 4), (5 6 7 8)")
# a rooted degree-10 tree over S5 x A5, whose local factors C2, A5, A5
# take a perfect step, and whose non-abelian maximal S5 x 1 is found
# after a round that grows to 1 x A5 and finds none
ROOTED_S5XA5 = ROOTED_SYM5.replace("degree = 5", "degree = 10").replace(
    "(0 1), (0 1 2 3 4)", "(0 1), (0 1 2 3 4), (5 6 7), (7 8 9)")
# US3_ELEMENTS plus u2, a witness at (1, 0) on the repelling side of g:
# its conjugates by g^k read the ball about g^-k(v0) from inside the
# subtree at (1, 0), the reversed half-tree
US3_REVERSED = US3_ELEMENTS.replace("c = word g u1 g~\n", "c = word g u1 g~\nu2 = portrait 10:(1 2)\n")

# the README spec, the first ini block of README.md: at depth 9 its
# minimal report is 31.7 MB (regular-sym3's word bound is too short there)
README_SPEC = re.search(r"```ini\n(.*?)```", (HERE / "README.md").read_text(), re.S).group(1)

SPECS = {"readme": README_SPEC, "elements": US3_ELEMENTS, "rooted-binary": ROOTED_BINARY,
         "regular-sym3": US3, "two-copy": TWOCOPY, "lone-axis": LONE_AXIS, "word": US3_WORD,
         "rooted-sym5": ROOTED_SYM5, "rooted-alt5": ROOTED_ALT5, "rooted-a4xc3": ROOTED_A4XC3,
         "rooted-a5xc4": ROOTED_A5XC4, "rooted-s5xa5": ROOTED_S5XA5,
         "reversed": US3_REVERSED, "rotation-only": ROTONLY,
         # [limits] entries the spec parser refuses: a value below its
         # minimum and an unknown key
         "seed-below-minimum": US3 + "seed = -1\n", "unknown-limit": US3 + "depht = 2\n"}
TIMEOUT_S = 900.0


def cases() -> list[tuple[str, list[str]]]:
    out = []
    # the word element h = g g reaches conjugates through a word conjugator
    for spec, element, depths in (("elements", "g", range(4, 8)), ("word", "h", (4, 5))):
        for depth in depths:
            d = ["--depth", str(depth)]
            for kind in ("goodshrink", "nub", "tits-core"):
                out.append((spec, ["certify", kind, "spec.ini", "--element", element, *d]))
            out.append((spec, ["certify", "contraction", "spec.ini",
                               "--element", element, "--u", "u1", "--ball", "4", *d]))
    # witnesses that state no support, so every pulled point is read: the
    # word c, and rho, a site at the base vertex, which never contracts (exit 4)
    for u in ("c", "rho"):
        for ball in ("4", "6"):
            out.append(("elements", ["certify", "contraction", "spec.ini",
                                     "--element", "g", "--u", u, "--ball", ball]))
    # u2's conjugates climb from g^-k(v0) to its site, and never contract (exit 4)
    for ball in ("2", "4", "6"):
        out.append(("reversed", ["certify", "contraction", "spec.ini",
                                 "--element", "g", "--u", "u2", "--ball", ball]))
    # the witness checks at depth 8 and at depth 10, where the half-tree
    # slices and the sparse tables read the largest balls
    for kind in ("goodshrink", "tits-core"):
        for depth in ("8", "10"):
            out.append(("elements", ["certify", kind, "spec.ini", "--element", "g", "--depth", depth]))
    # the nub shift check at the bench's depth, at a narrow and a wide
    # window, and at depth 10
    for extra in (["--depth", "8"], ["--depth", "6", "--m", "1"], ["--depth", "6", "--m", "5"],
                  ["--depth", "10", "--m", "2"]):
        out.append(("elements", ["certify", "nub", "spec.ini", "--element", "g", *extra]))
    for spec in ("rooted-binary", "regular-sym3"):
        out.append((spec, ["report-local", "spec.ini", "--depths", "1..4"]))
    # local-class regions one level deeper, each rendered through format_clopen
    out.append(("regular-sym3", ["report-local", "spec.ini", "--depths", "1..5"]))
    # non-soluble local groups: the soluble radical, the Melnikov subgroup
    # with the order check on its non-abelian maximals, and A5 factors
    for spec in ("rooted-sym5", "rooted-alt5"):
        out.append((spec, ["report-local", "spec.ini", "--depths", "1..3"]))
    for spec in ("rooted-a4xc3", "rooted-a5xc4", "rooted-s5xa5"):
        out.append((spec, ["report-local", "spec.ini", "--depths", "1..2"]))
    for spec in ("elements", "regular-sym3"):
        for depth in (2, 3):
            out.append((spec, ["dynamics", "degree", "spec.ini", "--depth", str(depth)]))
    for check in ("proximal", "measure", "minimal", "skewering", "minorising"):
        for depth in (3, 4):
            out.append(("regular-sym3", ["dynamics", check, "spec.ini", "--depth", str(depth)]))
    # two copies, where each search stops at its own copy, and a
    # non-minimal single tree with several invariant blocks
    for check in ("minimal", "degree", "minorising"):
        out.append(("two-copy", ["dynamics", check, "spec.ini"]))
        for depth in ("3", "5"):
            out.append(("two-copy", ["dynamics", check, "spec.ini", "--depth", depth]))
    # rooted generators step through their one-letter words' own maps
    for check in ("minimal", "degree", "measure", "proximal"):
        out.append(("rooted-binary", ["dynamics", check, "spec.ini", "--depth", "4"]))
    # rooted generators over two local generators, named in the
    # interleaved order rho0, s0, rho1, s1 that the first words follow
    for check in ("minimal", "degree"):
        out.append(("rooted-sym5", ["dynamics", check, "spec.ini", "--depth", "2"]))
    # trie steps below a site deeper than the base (u1 at depth 2), and
    # the lone axis, whose degree search exhausts its bound (exit 4)
    for check in ("minimal", "degree"):
        for depth in ("5", "6"):
            out.append(("elements", ["dynamics", check, "spec.ini", "--depth", depth]))
        out.append(("lone-axis", ["dynamics", check, "spec.ini", "--depth", "6"]))
    # far deeper word images than the depth-3/4 cases above; at depth 8
    # every start's first words come from one action graph
    for check, depths in (("minimal", (5, 6, 7, 8)), ("degree", (5, 6, 7, 8)),
                          ("skewering", (5, 6)), ("minorising", (7,))):
        for depth in depths:
            out.append(("regular-sym3", ["dynamics", check, "spec.ini", "--depth", str(depth)]))
    # forced zeros decide every regular-sym3 depth; lone-axis reaches the simplex
    for spec, depths in (("lone-axis", (2, 3)), ("regular-sym3", range(5, 10))):
        for depth in depths:
            out.append((spec, ["dynamics", "measure", "spec.ini", "--depth", str(depth)]))
    # the text format reads the folded report in insertion order
    for spec, argv in (("regular-sym3", ["dynamics", "minimal", "spec.ini", "--depth", "5"]),
                       ("regular-sym3", ["dynamics", "measure", "spec.ini", "--depth", "5"]),
                       ("regular-sym3", ["report-local", "spec.ini", "--depths", "1..3"]),
                       ("elements", ["certify", "goodshrink", "spec.ini", "--element", "g",
                                     "--depth", "6"])):
        out.append((spec, [*argv, "--format", "text"]))
    # a report written by --out, and the deepest minimal reports: not
    # minimal within regular-sym3's bound, and 31.7 MB of witnesses
    out.append(("regular-sym3", ["dynamics", "minimal", "spec.ini", "--depth", "5",
                                 "--out", "cert.json"]))
    for spec in ("regular-sym3", "readme"):
        out.append((spec, ["dynamics", "minimal", "spec.ini", "--depth", "9"]))
    out.append(("regular-sym3", ["certify", "orbit-join", "spec.ini"]))
    out.append(("regular-sym3", ["certify", "free-semigroup", "spec.ini", "--L", "6"]))
    # every generator fixes the base vertex, so the skewering search is refuted
    out.append(("rotation-only", ["certify", "free-semigroup", "spec.ini"]))
    # the pair orbit closes within the bound (exit 1), at bound 2 too, where
    # the words at the bound step to no unseen pair, and bound 1 cuts it
    # off (exit 4)
    for extra in ([], ["--word-bound", "2"], ["--word-bound", "1"]):
        out.append(("rotation-only", ["dynamics", "proximal", "spec.ini", *extra]))
    # each limit's least value, the one below it given as a flag (exit 2),
    # and the same faults in the spec's [limits]
    for flag, least in (("--depth", 1), ("--word-bound", 1), ("--seed", 0)):
        for value in (least, least - 1):
            out.append(("regular-sym3", ["dynamics", "proximal", "spec.ini", flag, str(value)]))
    for spec in ("seed-below-minimum", "unknown-limit"):
        out.append((spec, ["dynamics", "proximal", "spec.ini"]))
    # g skewers, but no base-fixing word separates g.alpha: that orbit
    # closes with words of length 1, so bound 1 refutes too
    for extra in ([], ["--word-bound", "1"]):
        out.append(("elements", ["certify", "free-semigroup", "spec.ini", *extra]))
    # addresses given on the command line: a proximal target, and clopen
    # overrides that verify (goodshrink 01, nub 02) or refute (02, 01)
    out.append(("regular-sym3", ["dynamics", "proximal", "spec.ini", "--target", "01"]))
    for alpha in ("01", "02"):
        out.append(("elements", ["certify", "goodshrink", "spec.ini", "--element", "g",
                                 "--alpha", alpha, "--n0", "2"]))
        out.append(("elements", ["certify", "nub", "spec.ini", "--element", "g", "--alpha", alpha]))
    out.append(("regular-sym3", ["certify", "orbit-join", "spec.ini", "--alpha", "12"]))
    # the orbit-class quotient, read off the child orbits, and the
    # local group's Schreier graph
    for spec in ("regular-sym3", "rooted-binary"):
        for depth in ("3", "4"):
            out.append((spec, ["export", "cayley-abels", "spec.ini", "--depth", depth]))
        out.append((spec, ["export", "schreier", "spec.ini", "--point", "1"]))
    out.append(("regular-sym3", ["export", "stone-orbit", "spec.ini", "--depth", "2"]))
    out.append(("elements", ["export", "stone-orbit", "spec.ini", "--depth", "3"]))
    # each copy's generators on their own copy, and a self-loop on the other
    for depth in (1, 2, 3, 4):
        out.append(("two-copy", ["export", "stone-orbit", "spec.ini", "--depth", str(depth)]))
    out.extend(("demo", [demo]) for demo in DEMOS)
    return out


def start(root: Path, spec: str, argv: list[str], workdir: Path) -> subprocess.Popen:
    workdir.mkdir()
    if spec == "demo":
        command = [sys.executable, str(root / argv[0])]
    else:
        (workdir / "spec.ini").write_text(SPECS[spec])
        if argv[0] == "certify":
            argv = [*argv, "--out", "cert.json"]
        command = [sys.executable, "-m", "tdlclab.cli", *argv]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.Popen(
        command,
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def finish(proc: subprocess.Popen, workdir: Path) -> tuple:
    stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    cert = workdir / "cert.json"
    return proc.returncode, stdout, stderr, cert.read_bytes() if cert.exists() else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="root of the other checkout")
    args = parser.parse_args()
    same = 0
    todo = cases()
    with tempfile.TemporaryDirectory() as tmp:
        for n, (spec, argv) in enumerate(todo):
            dirs = [Path(tmp) / f"{n}-base", Path(tmp) / f"{n}-head"]
            procs = [start(args.base.resolve(), spec, argv, dirs[0]),
                     start(HERE, spec, argv, dirs[1])]
            try:
                base, head = (finish(p, d) for p, d in zip(procs, dirs))
            except subprocess.TimeoutExpired:
                for p in procs:
                    p.kill()
                    p.wait()
                print(f"TIMEOUT  {spec}: {' '.join(argv)}")
                continue
            differ = [name for name, a, b in zip(("exit", "stdout", "stderr", "cert"), base, head)
                      if a != b]
            same += not differ
            status = "same" if not differ else "DIFFER " + ",".join(differ)
            print(f"{status:<8} exit {head[0]}  {spec}: {' '.join(argv)}", flush=True)
    print(f"{same}/{len(todo)} identical")
    return 0 if same == len(todo) else 1


if __name__ == "__main__":
    sys.exit(main())
