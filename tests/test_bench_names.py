"""The names the benchmark in perfbench/ wraps and calls must exist.

perfbench/spans.py wraps cmpoly functions and Inequality methods by name,
and perfbench/instances.py builds its inputs with graph_core, facet_family
and msi functions and Graph methods.  A rename or deletion of any of them
breaks `perfbench/run.py --trace 1` without failing another test, so these
tests import both modules unchanged and exercise them.
"""

import importlib
import sys
from pathlib import Path

import cmpoly.cli  # noqa: F401  (imports every cmpoly module the tracer patches)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import instances  # noqa: E402
import spans      # noqa: E402


def listed_originals():
    """The object behind every name the tracer lists, by qualified name."""
    out = {}
    for table in (spans.SPANNED, spans.COUNTED):
        for modname, quals in table.items():
            home = importlib.import_module(f"cmpoly.{modname}")
            for qual in quals:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    out[f"{modname}.{qual}"] = vars(getattr(home, cls_name))[meth]
                else:
                    out[f"{modname}.{qual}"] = getattr(home, qual)
    return out


class TestTracerNames:
    def test_install_wraps_every_listed_name_and_restore_undoes_it(self):
        originals = listed_originals()
        tracer = spans.Tracer()
        tracer.install()
        try:
            bindings = list(tracer.bindings)
        finally:
            tracer.restore()
        wrapped = {id(original) for _owner, _attr, original in bindings}
        missing = [name for name, obj in originals.items() if id(obj) not in wrapped]
        assert not missing
        for owner, attr, original in bindings:
            assert vars(owner)[attr] is original, (owner, attr)
        assert listed_originals() == originals


class TestInstanceNames:
    def test_every_workload_builds(self):
        for workload, build in instances.WORKLOAD_INSTANCES.items():
            insts = build(0)
            assert insts, workload
            assert all(inst.graph.m for inst in insts), workload
