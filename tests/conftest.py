"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` prints the blob that
reproduces a failing example locally (``@reproduce_failure``)."""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
