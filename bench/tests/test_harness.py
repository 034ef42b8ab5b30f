"""Self-tests for the benchmark harness.

Run from the root of a checkout:
    python3 -m unittest discover -s bench/tests
"""

import contextlib
import io
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

SMALL_CENSUS = ["census", "--family", "GL,Sp", "--ell", "3,5", "--w", "0..4", "--strip-timestamp"]
SMALL_ROWS = 50  # 2 families x (2 + 3 divisors d of ell - 1) x 5 weights

VERIFY_TEXT = (
    "gl n=3 q=3 ell=13: 5 classes, 1729 elements of ell-power order, calculus match PASS (0.41s)\n"
    "multi grid s<=8 t<=12: enumeration vs recurrence PASS (12.30s)\n"
    "E8-5blocks defect orders at a=1: PASS (orders 5^9 / 5^5 / 5^4)\n"
    "ell-power partition bound: PASS (ell in (2, 3, 5), w <= 5000, 0.01s)\n"
)


class CorrectnessGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.result = run.run_sample([SMALL_CENSUS], seed=0, trace=False)
        assert cls.result is not None
        text = cls.result["outputs"][0]
        ops, _ = run.count_ops(SMALL_CENSUS, text)
        cls.reference = [{"sha256": run.digest(SMALL_CENSUS, text), "ops": ops}]

    def check(self, outputs, codes=(0,)):
        result = dict(self.result, outputs=list(outputs), codes=list(codes))
        return run.check_sample([SMALL_CENSUS], self.reference, result)

    def test_clean_sample_passes(self):
        attempted, failed, problems = self.check(self.result["outputs"])
        self.assertEqual((failed, problems), (0, []))
        self.assertEqual(attempted, SMALL_ROWS)

    def test_altered_report_byte_fails_every_operation(self):
        text = self.result["outputs"][0]
        last = text.rstrip("\n").rsplit(",", 1)
        altered = last[0] + ",f" + last[1][1:] + "\n"  # true -> frue
        self.assertEqual(len(altered), len(text))
        attempted, failed, problems = self.check([altered])
        self.assertEqual(failed, attempted)
        self.assertTrue(problems)

    def test_error_row_and_nonzero_exit_fail(self):
        text = self.result["outputs"][0].replace("HOLDS_STRICT", "ERROR", 1)
        self.assertEqual(run.count_ops(SMALL_CENSUS, text)[1], 1)
        attempted, failed, _ = self.check(self.result["outputs"], codes=(2,))
        self.assertEqual(failed, attempted)

    def test_crashed_sample_fails_every_operation(self):
        attempted, failed, _ = run.check_sample([SMALL_CENSUS], self.reference, None)
        self.assertEqual((attempted, failed), (SMALL_ROWS, SMALL_ROWS))


class TimingMask(unittest.TestCase):
    def test_mask_touches_only_the_elapsed_fields(self):
        masked = run.mask_timings(VERIFY_TEXT)
        self.assertEqual(
            masked,
            VERIFY_TEXT.replace("(0.41s)", "(N.NNs)")
            .replace("(12.30s)", "(N.NNs)")
            .replace("0.01s)", "N.NNs)"),
        )
        self.assertIn("(orders 5^9 / 5^5 / 5^4)", masked)
        self.assertEqual(len(masked.splitlines()), 4)

    def test_digest_ignores_timings_but_not_text(self):
        argv = ["oracle"]
        slower = VERIFY_TEXT.replace("(0.41s)", "(3.99s)")
        self.assertEqual(run.digest(argv, VERIFY_TEXT), run.digest(argv, slower))
        changed = VERIFY_TEXT.replace("1729", "1728")
        self.assertNotEqual(run.digest(argv, VERIFY_TEXT), run.digest(argv, changed))
        self.assertEqual(run.count_ops(argv, VERIFY_TEXT), (4, 0))


class NoWrapperInTimedSamples(unittest.TestCase):
    def test_untraced_sample_has_no_wrapper(self):
        plain = run.run_sample([SMALL_CENSUS], seed=0, trace=False)
        traced = run.run_sample([SMALL_CENSUS], seed=0, trace=True)
        self.assertEqual(plain["wrapped"], 0)
        self.assertIsNone(plain["layers"])
        self.assertGreater(traced["wrapped"], 0)
        self.assertEqual(traced["layers"]["blocks.rows"], SMALL_ROWS)

    def test_restore_puts_every_original_back(self):
        from blockcensus import blocks, cli, counting

        before = (blocks.composition_sum, counting.CountCache.p_ell, cli.main)
        t = tracer.Tracer()
        t.install()
        try:
            self.assertTrue(tracer.is_wrapper(blocks.composition_sum))
            self.assertTrue(tracer.is_wrapper(vars(counting.CountCache)["p_ell"]))
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(cli.main(["bounds", "--wmax", "10", "--nmax", "3"]), 0)
        finally:
            t.restore()
        self.assertEqual(tracer.installed_wrappers(), 0)
        self.assertEqual(before, (blocks.composition_sum, counting.CountCache.p_ell, cli.main))
        self.assertGreater(t.calls["cli.main"], 0)


if __name__ == "__main__":
    unittest.main()
