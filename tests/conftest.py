"""Suite-wide settings: one deterministic hypothesis profile.

derandomize makes every run draw the same examples, and deadline=None keeps
slow machines from turning a property test into a timing failure.  No
example database is written.
"""

from hypothesis import settings

settings.register_profile("needleboard", derandomize=True, deadline=None, database=None)
settings.load_profile("needleboard")
