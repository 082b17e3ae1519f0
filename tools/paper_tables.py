#!/usr/bin/env python3
"""Print the paper's evaluation tables from getm-sweep documents.

Usage: paper_tables.py SWEEP.json [SWEEP.json ...]

Each argument is the sweep.json of a figure manifest in configs/sweeps/,
recognized by its sweep name. Every table whose sweeps are all given is
printed, in paper order:

  Fig. 3       fig03-concurrency
  Fig. 4       fig04-eager-vs-lazy
  Fig. 10-13   fig10-12-protocols
  Fig. 14      fig10-12-protocols, fig14-table-size, fig14-granularity
  Fig. 15, 16  fig15-16-stalls
  Fig. 17      fig10-12-protocols, fig17-scalability
  Table IV     tab04-concurrency

Table IV's optimum is the first tx-warp limit, in 1 2 4 8 16 NL order,
with the fewest cycles. Exits non-zero if no table uses a given sweep,
or a point a table reads is missing, failed or did not verify.
"""

import json
import math
import sys

# allBenchIds() order (src/workloads/workload.cc): the paper's Table III.
BENCHES = ["HT-H", "HT-M", "HT-L", "ATM", "CL", "CLto", "BH", "CC", "AP"]
LIMITS = [1, 2, 4, 8, 16, 0]  # 0 = no limit, the paper's "NL"
WTM, EL, EAPG, GETM, LOCK = "WarpTM-LL", "WarpTM-EL", "EAPG", "GETM", "FGLock"


def p(fmt, *args):
    sys.stdout.write(fmt % args)


# Plain left-to-right float sums, as a C++ accumulation loop does:
# sum() compensates rounding since Python 3.12, which could move the
# last printed digit.
def gmean(values):
    log_sum = 0.0
    for value in values:
        log_sum += math.log(value)
    return math.exp(log_sum / len(values))


def mean(values):
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def limit_name(limit):
    return "NL" if limit == 0 else str(limit)


class Sweep:
    def __init__(self, doc):
        self.name = doc["sweep"]["name"]
        self.points = doc["points"]
        self.scale = next(iter(self.points.values()))["meta"]["scale"]

    def point(self, bench, protocol, **config):
        """The point for (bench, protocol) whose config has these values."""
        for point_id, point in self.points.items():
            meta = point["meta"]
            if (meta["bench"] == bench and meta["protocol"] == protocol
                    and all(point["config"][key] == str(value)
                            for key, value in config.items())):
                if "failure" in point or not meta["verified"]:
                    raise ValueError(f"{self.name}: point {point_id} "
                                     f"failed or did not verify")
                return point
        raise ValueError(f"{self.name}: no {bench}/{protocol} point "
                         f"{config or ''}")

    def run(self, bench, protocol, **config):
        return self.point(bench, protocol, **config)["run"]


def ratio_table(title, scale, headers, widths, row):
    """One row of ratios per bench, then each column's gmean."""
    p("%s (scale %.3g)\n", title, scale)
    p("%-8s" + "".join(" %%%ds" % w for w in widths) + "\n", "bench",
      *headers)
    fmt = "%-8s" + "".join(" %%%d.3f" % w for w in widths) + "\n"
    columns = [[] for _ in widths]
    for bench in BENCHES:
        values = row(bench)
        for column, value in zip(columns, values):
            column.append(value)
        p(fmt, bench, *values)
    p(fmt, "GMEAN", *map(gmean, columns))


def tx_cycles(run):
    return run["tx_exec_cycles"] + run["tx_wait_cycles"]


def fig03(s):
    p("Fig. 3 reproduction: HT-H per-transaction cycles vs tx-warp "
      "concurrency (scale %.3g)\n", s.scale)
    p("%-8s" + " %12s" * 6 + "\n", "limit", "LL exec/tx", "LL wait/tx",
      "LL total", "EL exec/tx", "EL wait/tx", "EL total")
    for limit in LIMITS:
        p("%-8s", limit_name(limit))
        for protocol in (WTM, EL):
            run = s.run("HT-H", protocol, tx_warp_limit=limit)
            execs = run["tx_exec_cycles"] / run["commits"]
            waits = run["tx_wait_cycles"] / run["commits"]
            p(" %12.1f %12.1f %12.1f", execs, waits, execs + waits)
        p("\n")


def fig04(s):
    p("Fig. 4 reproduction (scale %.3g)\n", s.scale)
    p("%-8s %12s %12s %12s | %12s %12s\n", "bench", "LL tx-cyc",
      "EL tx-cyc", "EL/LL", "LL/FGLock", "EL/FGLock")
    ratio_ll, ratio_el = [], []
    for bench in BENCHES:
        lock, ll, el = (s.run(bench, x) for x in (LOCK, WTM, EL))
        ratio_ll.append(ll["cycles"] / lock["cycles"])
        ratio_el.append(el["cycles"] / lock["cycles"])
        p("%-8s %12.0f %12.0f %12.3f | %12.3f %12.3f\n", bench,
          tx_cycles(ll), tx_cycles(el), tx_cycles(el) / tx_cycles(ll),
          ratio_ll[-1], ratio_el[-1])
    p("%-8s %12s %12s %12s | %12.3f %12.3f\n", "GMEAN", "", "", "",
      gmean(ratio_ll), gmean(ratio_el))


def fig10(s):
    p("Fig. 10 reproduction: tx exec+wait cycles normalized to WarpTM "
      "(scale %.3g)\n", s.scale)
    p("%-8s %10s %10s %10s  (exec%% / wait%% of WTM total)\n", "bench",
      "WTM", "EAPG", "GETM")
    norm_eapg, norm_getm = [], []
    for bench in BENCHES:
        runs = [s.run(bench, x) for x in (WTM, EAPG, GETM)]
        base = tx_cycles(runs[0])
        norm_eapg.append(tx_cycles(runs[1]) / base)
        norm_getm.append(tx_cycles(runs[2]) / base)
        split = "  ".join("%.0f/%.0f" % (100.0 * r["tx_exec_cycles"] / base,
                                         100.0 * r["tx_wait_cycles"] / base)
                          for r in runs)
        p("%-8s %10.3f %10.3f %10.3f  (%s)\n", bench, 1.0, norm_eapg[-1],
          norm_getm[-1], split)
    p("%-8s %10.3f %10.3f %10.3f\n", "GMEAN", 1.0, gmean(norm_eapg),
      gmean(norm_getm))


def fig11(s):
    def row(bench):
        lock, wtm, eapg, getm = (s.run(bench, x)["cycles"]
                                 for x in (LOCK, WTM, EAPG, GETM))
        return [1.0, wtm / lock, eapg / lock, getm / lock, wtm / getm]
    ratio_table("Fig. 11 reproduction: total exec time normalized to "
                "FGLock", s.scale, ["FGLock", "WTM", "EAPG", "GETM",
                                    "WTM/GETM"], [10, 10, 10, 10, 12], row)


def fig12(s):
    def row(bench):
        flits = [s.run(bench, x)["xbar_flits"] for x in (WTM, EAPG, GETM)]
        return [f / flits[0] for f in flits]
    ratio_table("Fig. 12 reproduction: crossbar flits normalized to "
                "WarpTM", s.scale, ["WTM", "EAPG", "GETM"], [12] * 3, row)


def fig13(s):
    p("Fig. 13 reproduction: mean metadata access cycles per request "
      "(scale %.3g)\n", s.scale)
    p("%-8s %16s\n", "bench", "access cycles")
    cycles = []
    for bench in BENCHES:
        averages = s.point(bench, GETM)["stats"]["averages"]
        cycles.append(averages["access_cycles"]["mean"])
        p("%-8s %16.3f\n", bench, cycles[-1])
    p("%-8s %16.3f\n", "AVG", mean(cycles))


def fig14(s, sizes, granules):
    p("Fig. 14 reproduction: GETM sensitivity, exec time normalized to "
      "WarpTM (scale %.3g)\n", sizes.scale)
    for title, sweep, key, values, headers in (
            ("metadata table size (32 B granularity)", sizes,
             "getm_precise_entries", [2048, 4096, 8192],
             ["GETM-2K", "GETM-4K", "GETM-8K"]),
            ("metadata granularity (4K entries)", granules, "getm_granule",
             [16, 32, 64, 128], ["16B", "32B", "64B", "128B"])):
        p("\n-- %s --\n", title)
        p("%-8s" + " %12s" * len(headers) + "\n", "bench", *headers)
        for bench in BENCHES:
            wtm = s.run(bench, WTM)["cycles"]
            p("%-8s" + " %12.3f" * len(values) + "\n", bench,
              *(sweep.run(bench, GETM, **{key: v})["cycles"] / wtm
                for v in values))


def fig15(s):
    p("Fig. 15 reproduction: peak GPU-wide stall-buffer occupancy "
      "(scale %.3g)\n", s.scale)
    p("%-8s %16s\n", "bench", "peak queued")
    peaks = []
    for bench in BENCHES:
        point = s.point(bench, GETM)
        peaks.append(point["stall"]["peak_occupancy"])
        p("%-8s %16d %12d stalls\n", bench, peaks[-1],
          sum(point["stalls_by_reason"].values()))
    p("%-8s %16d\n", "MAX", max(peaks))


def fig16(s):
    p("Fig. 16 reproduction: mean stalled requests per address "
      "(scale %.3g)\n", s.scale)
    p("%-8s %16s   hottest granule\n", "bench", "waiters/addr")
    waiters = []
    for bench in BENCHES:
        point = s.point(bench, GETM)
        waiters.append(point["stall"]["mean_waiters_per_addr"])
        p("%-8s %16.3f   ", bench, waiters[-1])
        if point["hot_addresses"]:
            hot = point["hot_addresses"][0]
            p("%#x (%d events, P%d)\n", hot["addr"], hot["total"],
              hot["partition"])
        else:
            p("(no contention)\n")
    p("%-8s %16.3f\n", "AVG", mean(waiters))


def fig17(s15, s56):
    def row(bench):
        cycles = [sweep.run(bench, x)["cycles"]
                  for sweep in (s15, s56) for x in (WTM, EAPG, GETM)]
        return [c / cycles[0] for c in cycles]
    ratio_table("Fig. 17 reproduction: exec time normalized to 15-core "
                "WarpTM", s15.scale, ["WTM15", "EAPG15", "GETM15", "WTM56",
                                      "EAPG56", "GETM56"], [9] * 6, row)


def tab04(s):
    p("Table IV reproduction: best concurrency and aborts/1K commits "
      "(scale %.3g)\n", s.scale)
    p("%-8s | %6s %6s %6s %6s | %8s %8s %8s %8s\n", "bench", "WTM",
      "EAPG", "EL", "GETM", "WTM", "EAPG", "EL", "GETM")
    for bench in BENCHES:
        # min() keeps the first of equal keys: ties go to the lower limit.
        best = [min(((s.run(bench, x, tx_warp_limit=limit), limit)
                     for limit in LIMITS), key=lambda pair: pair[0]["cycles"])
                for x in (WTM, EAPG, EL, GETM)]
        p("%-8s |" + " %6s" * 4 + " |" + " %8.0f" * 4 + "\n", bench,
          *(limit_name(limit) for _, limit in best),
          *(run["aborts_per_1k_commits"] for run, _ in best))


# (sweeps read, renderers fed those sweeps), in paper order.
TABLES = [
    (["fig03-concurrency"], [fig03]),
    (["fig04-eager-vs-lazy"], [fig04]),
    (["fig10-12-protocols"], [fig10, fig11, fig12, fig13]),
    (["fig10-12-protocols", "fig14-table-size", "fig14-granularity"],
     [fig14]),
    (["fig15-16-stalls"], [fig15, fig16]),
    (["fig10-12-protocols", "fig17-scalability"], [fig17]),
    (["tab04-concurrency"], [tab04]),
]


def main(argv):
    if len(argv) < 2 or argv[1].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        sweeps = {}
        for path in argv[1:]:
            with open(path, encoding="utf-8") as fh:
                sweep = Sweep(json.load(fh))
            sweeps[sweep.name] = sweep
        used = set()
        for names, renderers in TABLES:
            if all(name in sweeps for name in names):
                used.update(names)
                for render in renderers:
                    render(*(sweeps[name] for name in names))
        if set(sweeps) - used:
            raise ValueError(f"no table uses {sorted(set(sweeps) - used)}"
                             f" without its companion sweeps")
    except (OSError, KeyError, ValueError) as err:
        print(f"paper_tables: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
