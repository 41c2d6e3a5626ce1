#!/usr/bin/env python3
"""Flat profile from the hostprof sampler's output (scripts/hostprof.sh).

Usage: scripts/hostprof_report.py DIR [--exe NAME] [--under FRAME] [--top N]
                                    [--baseline BASE_DIR]

Each DIR/<pid>.prof holds one process's backtraces and its /proc/self/maps.
Every frame is turned into (object file, ELF address) through the maps of
its own process, because each run loads at different addresses, and then
resolved by one `addr2line -f -C` call per object file.

--exe keeps the processes whose executable is named NAME. --under keeps
the samples with a frame whose function name contains FRAME, e.g.
run_until for a benchmark's timed window; shares are of the kept samples.

self%: the sample's innermost frame in the executable. Frames in shared
libraries (memcpy, malloc, libstdc++) are charged to their first caller in
the executable. incl%: samples with the function anywhere on the stack.
Names drop their return type, parameter lists and clone suffixes, so
overloads and the pieces of a coroutine share a row; a lambda is charged
to <enclosing function>::{lambda}.

--baseline compares DIR against a second profile taken the same way (same
--exe and --under): each row shows the function's self% in BASE_DIR and in
DIR and the difference, largest change first, so a change's saving shows
where it sits. A function found in one profile only reads 0 in the other.
"""

import argparse
import bisect
import collections
import functools
import glob
import os
import re
import subprocess
import sys


def load(path):
    """Returns (exe, maps, samples) of one .prof file."""
    exe, maps, samples = "", [], []
    with open(path) as f:
        for line in f:
            tag, _, rest = line.rstrip("\n").partition(" ")
            if tag == "exe":
                exe = rest
            elif tag == "map":
                fields = rest.split(None, 5)
                if len(fields) == 6 and "x" in fields[1]:
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif tag == "s":
                samples.append([int(x, 16) for x in rest.split()])
    maps.sort()
    return exe, maps, samples


@functools.cache
def load_segments(path):
    """LOAD segments of an ELF file as (file offset, vaddr, size)."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                         text=True).stdout
    return [(int(m[1], 16), int(m[2], 16), int(m[3], 16))
            for m in re.finditer(r"LOAD\s+(0x[0-9a-f]+)\s+(0x[0-9a-f]+)\s+"
                                 r"\S+\s+(0x[0-9a-f]+)", out)]


def locate(maps, starts, addr):
    """(object, ELF address) of a runtime address, or None."""
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1]:
        return None
    lo, _, off, path = maps[i]
    file_off = addr - lo + off
    for seg_off, vaddr, size in load_segments(path):
        if seg_off <= file_off < seg_off + size:
            return path, file_off - seg_off + vaddr
    return path, file_off


def resolve(addrs_by_obj):
    """{(object, address): function name} through addr2line."""
    names = {}
    for obj, addrs in addrs_by_obj.items():
        addrs = sorted(addrs)
        out = subprocess.run(["addr2line", "-f", "-C", "-e", obj],
                             input="\n".join(hex(a) for a in addrs),
                             capture_output=True, text=True).stdout
        funcs = out.splitlines()[0::2]
        for a, fn in zip(addrs, funcs):
            names[(obj, a)] = short_name(fn) if fn != "??" else \
                f"[{os.path.basename(obj)}]"
    return names


def short_name(name):
    """Drops the return type, parameter lists and clone suffixes of a
    demangled name; a lambda becomes <enclosing function>::{lambda}."""
    name = re.sub(r"( \[clone [^\]]*\])+$|\[abi:cxx11\]", "", name)
    lam = name.find("::{lambda(")
    if lam >= 0:
        return short_name(name[:lam]) + "::{lambda}"
    name = re.sub(r" const$", "", name)
    if name.endswith(")"):
        depth = 0
        for i in range(len(name) - 1, -1, -1):
            depth += {")": 1, ">": 1, "(": -1, "<": -1}.get(name[i], 0)
            if depth == 0:
                name = name[:i]
                break
    depth, start = 0, 0
    for i, c in enumerate(name):
        depth += {"(": 1, "<": 1, ")": -1, ">": -1}.get(c, 0)
        if c == " " and depth == 0:
            start = i + 1
    return name[start:]


def profile(directory, exe_name, under):
    """(total, self counts, incl counts, process count) of one profile."""
    procs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.prof"))):
        exe, maps, samples = load(path)
        if exe_name and os.path.basename(exe) != exe_name:
            continue
        starts = [m[0] for m in maps]
        # Frame 0 is the interrupted instruction; the rest are return
        # addresses, so step back into the call instruction.
        stacks = [[locate(maps, starts, a - (k > 0)) for k, a in enumerate(s)]
                  for s in samples]
        procs.append((exe, stacks))
    if not procs:
        sys.exit(f"no matching .prof files in {directory}")

    addrs_by_obj = collections.defaultdict(set)
    for _, stacks in procs:
        for stack in stacks:
            for fr in stack:
                if fr:
                    addrs_by_obj[fr[0]].add(fr[1])
    names = resolve(addrs_by_obj)

    self_n, incl_n, total = collections.Counter(), collections.Counter(), 0
    for exe, stacks in procs:
        for stack in stacks:
            frames = [(fr[0] == exe, names[fr]) for fr in stack if fr]
            if under and not any(under in n for _, n in frames):
                continue
            total += 1
            own = [n for in_exe, n in frames if in_exe]
            if own:
                self_n[own[0]] += 1
            elif frames:  # no frame in the executable: keep the library's
                self_n[frames[0][1]] += 1
            incl_n.update(set(own))
    if not total:
        sys.exit(f"no samples matched in {directory}")
    return total, self_n, incl_n, len(procs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir")
    ap.add_argument("--exe", help="keep processes whose executable is NAME")
    ap.add_argument("--under", help="keep samples with a frame matching this")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--baseline", metavar="BASE_DIR",
                    help="print self%% deltas against this profile")
    args = ap.parse_args()

    total, self_n, incl_n, nprocs = profile(args.dir, args.exe, args.under)
    scope = f", under {args.under}" if args.under else ""
    if args.baseline:
        b_total, b_self, _, b_procs = profile(args.baseline, args.exe,
                                              args.under)
        print(f"# {b_total} baseline samples from {b_procs} processes, "
              f"{total} samples from {nprocs} processes{scope}")
        print(f"{'base%':>6} {'self%':>6} {'delta':>6}  function")
        pct = {fn: (100 * b_self[fn] / b_total, 100 * self_n[fn] / total)
               for fn in set(b_self) | set(self_n)}
        for fn in sorted(pct, key=lambda f: (-abs(pct[f][1] - pct[f][0]),
                                             f))[:args.top]:
            base, now = pct[fn]
            print(f"{base:6.1f} {now:6.1f} {now - base:+6.1f}  {fn}")
        return

    print(f"# {total} samples from {nprocs} processes{scope}")
    print(f"{'incl%':>6} {'self%':>6}  function")
    rows = set(incl_n) | set(self_n)
    for fn in sorted(rows, key=lambda f: (-incl_n[f], -self_n[f], f))[:args.top]:
        print(f"{100 * incl_n[fn] / total:6.1f} {100 * self_n[fn] / total:6.1f}"
              f"  {fn}")


if __name__ == "__main__":
    main()
