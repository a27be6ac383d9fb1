"""Tests of the span tracer: self time, folding and restoring binding sites.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import types
import unittest

import spans


class FakeClock:
    """A clock that advances only when a test function says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        # outer 100 ns: 10 own, inner 60 (of which leaf 25), 30 own at the end.
        nodes = [
            [spans.ROOT, -1, 0, 0],
            ["outer", 0, 1, 100],
            ["inner", 1, 1, 60],
            ["leaf", 2, 1, 25],
        ]
        self.assertEqual(spans.self_times(nodes), {"outer": 40, "inner": 35, "leaf": 25})

    def test_nested_spans_fold_and_time_through_wrappers(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)

        def leaf():
            clock.advance(5)

        def inner():
            clock.advance(7)
            traced_leaf()
            traced_leaf()

        def outer():
            clock.advance(3)
            traced_inner()
            traced_leaf()

        traced_leaf = tracer.wrap("leaf", leaf)
        traced_inner = tracer.wrap("inner", inner)
        tracer.wrap("outer", outer)()
        tracer.end_op()
        tracer.scales = [2.0]

        names = [(name, parent, calls, total) for name, parent, calls, total in tracer.ops[0]]
        self.assertEqual(
            names,
            [
                (spans.ROOT, -1, 0, 0),
                ("outer", 0, 1, 25),
                ("inner", 1, 1, 17),
                ("leaf", 2, 2, 10),  # two calls under inner, folded into one node
                ("leaf", 1, 1, 5),
            ],
        )
        self.assertEqual(
            tracer.self_ms(), {"outer": 2 * 3 / 1e6, "inner": 2 * 7 / 1e6, "leaf": 2 * 15 / 1e6}
        )

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)

        def fails():
            clock.advance(4)
            raise ValueError("bad input")

        with self.assertRaises(ValueError):
            tracer.wrap("fails", fails)()
        tracer.wrap("after", lambda: clock.advance(1))()
        self.assertEqual([node[1] for node in tracer.nodes], [-1, 0, 0])
        self.assertEqual(tracer.nodes[1][3], 4)


class PatchesTest(unittest.TestCase):
    def test_replace_and_restore_functions_and_classmethods(self):
        class System:
            @classmethod
            def build(cls, n):
                return (cls, n)

        module = types.ModuleType("module")
        module.double = lambda n: 2 * n
        original = System.__dict__["build"]

        tracer = spans.Tracer(FakeClock())
        patches = spans.Patches()
        self.assertTrue(patches.replace(module, "double", lambda fn: tracer.wrap("double", fn)))
        self.assertTrue(patches.replace(System, "build", lambda fn: tracer.wrap("build", fn)))
        self.assertFalse(patches.replace(module, "absent", lambda fn: fn))

        self.assertEqual(module.double(4), 8)
        self.assertEqual(System.build(3), (System, 3))
        self.assertEqual([node[0] for node in tracer.nodes[1:]], ["double", "build"])

        patches.restore()
        self.assertIs(System.__dict__["build"], original)
        self.assertNotIn("__wrapped__", vars(module.double))


class CountReportTest(unittest.TestCase):
    def test_witness_entries_are_the_values_the_report_prints(self):
        tracer = spans.Tracer(FakeClock())
        table = '{"results": {"witness_system": {"horizon": 2, "table": {"": "1/2", "0": "0", "1": "1"}}}}'
        compact = '{"results": {"witness_system": {"horizon": 2, "rules": [["*", "1/2"]]}}}'
        for out in (table, compact, '{"results": {"upper_game": "1"}}', ""):
            spans.count_report(tracer, out)
        self.assertEqual(tracer.counts["measureprob.witness_entries"], 4 + 3)
        self.assertEqual(tracer.counts["cli.report_bytes"],
                         len(table) + len(compact) + len('{"results": {"upper_game": "1"}}'))


if __name__ == "__main__":
    unittest.main()
