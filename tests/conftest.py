"""Tier-1 runs the same Hypothesis examples on every run.

Each property test draws its examples from a seed derived from the test
itself, not from the clock or the example database, so a failure repeats
and a pass is the same pass everywhere.  A test's own @settings still
set its example count.

The report header names the platform the pinned digests are checked on.
"""
from hypothesis import settings

from rmplab.storage import platform_record

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


def pytest_report_header(config) -> list[str]:
    """numpy's version and SIMD targets, as the manifest records them, and what the pins need."""
    platform = platform_record()
    return [
        f"rmplab platform: numpy {platform['numpy']}, SIMD {' '.join(platform['simd'])}",
        "rmplab pins: the pinned digests hold only under numpy's AVX-512 dispatch (X86_V4,"
        " AVX512_ICL, AVX512_SPR); without it, as on a CPU without AVX-512, 45 pin tests fail",
    ]
