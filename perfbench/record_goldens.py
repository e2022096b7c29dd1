"""Record perfbench/goldens.json from the current sources.

    python3 perfbench/record_goldens.py

Run from the repository root, only on a commit whose outputs are known to be
right: every later benchmark run compares its outputs with these values.
"""

import json

import run


def main():
    goldens = {"fixtures_cli": {}, "classify_sweep": {}}
    inputs, _ = run.prepare("fixtures_cli", 0)
    ops, _ = run.fixtures_pass(inputs, traced=False)
    for op in ops:
        if op["errors"]:
            raise SystemExit(f"{op['key']}: {op['errors']}")
        goldens["fixtures_cli"][op["key"]] = {
            "content": op["content"], "stdout_sha256": op["sha256"]}
        if "big_operands" in op:
            goldens["big_operands"] = op["big_operands"]
    inputs, inputs_path = run.prepare("classify_sweep", 0)
    results, _, _ = run.inproc_pass("classify_sweep", inputs_path, False, 0)
    if results is None:
        raise SystemExit("classify_sweep: worker failed")
    for p, res in zip(inputs["problems"], results):
        goldens["classify_sweep"][run.sweep_key(p)] = res["content"]
    goldens["classify_sweep"] = dict(sorted(goldens["classify_sweep"].items()))
    with open(run.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
