"""Regenerate bench/expected.json: values recorded from the current commit
where the benchmark has no independent reference.

    python3 bench/record_expected.py

Records the sweep's ball sizes (radius 7 for timed passes, radius 10 for
--full) and the exit code and fact set of `endscope analyze` on each fixture.
"""

import contextlib
import io
import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    es = run.import_endscope()
    sweep = {}
    for radius in (7, 10):
        sizes = {}
        for n, edges in workloads.small_diagrams():
            system = es.coxeter.CoxeterSystem(es.graphs.LabeledGraph.build(range(n), edges))
            sizes[workloads.sweep_label(n, edges)] = len(es.cayley.build_ball(es.cayley.CoxeterOracle(system), radius).order)
        sweep[str(radius)] = sizes
    fixtures = {}
    for name in workloads.FIXTURES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = es.cli.run(["analyze", str(run.ROOT / "tests" / "fixtures" / name)])
        report = json.loads(out.getvalue())
        if code == 3:
            fixtures[name] = {"exit": code, "contradiction": [
                report["contradiction"]["group"], report["contradiction"]["atom"]]}
        else:
            facts = workloads.fact_rows(report)
            fixtures[name] = {"exit": code, "facts": len(facts),
                              "facts_sha256": workloads._sha(json.dumps(facts))}
    with open(workloads.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump({"sweep_elements": sweep, "fixtures": fixtures}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
