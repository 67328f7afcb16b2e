"""Compare two sets of benchmark runs of the same seeds.

    python3 perfbench/compare.py SET_A SET_B

Each set is a copy of ``.bench_out/`` after running every workload on the
same seeds. For each workload and end-to-end metric it prints the median and
the quartile spread (as a share of the median) of each set, and whether B's
median is worse than A's by more than the metric's bound in BENCHMARK.json.
It then checks that every count of the traced runs is equal seed for seed.
Exits 1 when a bound or a count check fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(directory: Path, trace: int) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        m = json.loads(path.read_text())
        runs[(m["workload"], m["seed"])] = m
    return runs


def _spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_dir, b_dir = (Path(p) for p in argv)
    ok = True
    a, b = _load(a_dir, 0), _load(b_dir, 0)
    for wl in sorted({w for w, _ in a}):
        seeds = sorted(s for w, s in a if w == wl and (w, s) in b)
        if len(seeds) < 2:
            continue
        print(f"{wl} ({len(seeds)} seeds)")
        for metric in bench["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            va = [a[(wl, s)]["metrics"][name]["value"] for s in seeds]
            vb = [b[(wl, s)]["metrics"][name]["value"] for s in seeds]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if lower else (ma - mb) / ma
            verdict = "ok" if change <= bound else "WORSE"
            ok &= verdict == "ok"
            print(
                f"  {name:<14} A {ma:12.4f} ({_spread(va):.3f})  B {mb:12.4f} ({_spread(vb):.3f})"
                f"  worse by {change:+.3f} of bound {bound}  {verdict}"
            )
    ta, tb = _load(a_dir, 1), _load(b_dir, 1)
    for key in sorted(set(ta) & set(tb)):
        same = ta[key]["counts"] == tb[key]["counts"]
        ok &= same
        print(f"counts {key[0]} seed {key[1]}: {'equal' if same else 'DIFFER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
