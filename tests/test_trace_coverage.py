"""The benchmark's tracer must find every function it times per layer.

perfbench/spans.py wraps bergerhelix functions by name and lists each name
of its REQUIRED set that it cannot find under trace.missing.  The module is
read here as source (nothing under perfbench/ is written or imported as a
package), so removing or renaming a timed function fails this test instead
of silently zeroing a per-layer metric.
"""

import pathlib
import types

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# names of the check functions that the check registry replaced; the tracer
# already misses them and reads their per-layer self times as 0
REGISTRY_ERA = {
    "verify._check_angle_sweep", "verify._check_fields", "verify._check_first_order_system",
    "verify._check_gram", "verify.check_fourth_order_ode", "verify.check_j1_products",
    "verify.check_normal_closed_form", "verify.check_product_table",
}


def _spans():
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_required_span_resolves():
    spans = _spans()
    tracer = spans.Tracer()
    tracer._collect()
    assert REGISTRY_ERA <= spans.REQUIRED
    assert set(tracer.missing) <= REGISTRY_ERA
