"""Writes perfbench/references.json: the numbers one warm pass of each
workload produces at the default seed.  Run it only when a change is meant
to alter the program's results, and say so in the change.

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json

import run
import workloads as wl


def main() -> None:
    refs = {"seed": wl.DEFAULT_SEED}
    for name in wl.WORKLOADS:
        runs = wl.manifests(name, wl.DEFAULT_SEED)
        res = run.measure(name, runs, trace=False, seconds=0.0,
                          setups=1)[0]
        entry = {}
        for (label, _, params), out in zip(runs, res["outputs"][-1]):
            obs = wl.observed(label, params, out)
            entry["C_inf"] = obs.pop("C_inf")
            if label == "sweep":
                obs["t_max_unit"] = obs["t_max"][params["lambdas"]
                                                 .index(1.0)]
            entry[label] = obs
        refs[name] = entry
    with open(run.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
