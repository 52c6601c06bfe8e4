import os

from hypothesis import settings

# CI selects this profile (HYPOTHESIS_PROFILE=ci): a failing property prints
# the blob that replays its example, and no example is cut short by a deadline.
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
