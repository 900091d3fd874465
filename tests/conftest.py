import os
import sys

from hypothesis import Phase, settings

sys.path.insert(0, os.path.dirname(__file__))

# Hypothesis's explain phase traces every line the test runs while a
# failure is shrunk. That made one failing property spend the whole
# five-minute shrink budget and several hundred MB before it reported;
# without it the same failures shrink and report in under a minute.
settings.register_profile(
    "no-explain", phases=[p for p in Phase if p != Phase.explain])
settings.load_profile("no-explain")
