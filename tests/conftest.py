# Makes this directory importable so test modules can share oracles.py and
# generators.py without packaging them.

from hypothesis import HealthCheck, settings

# "suite" is the default; "deep" runs the same properties on many more
# examples (select it with ``--hypothesis-profile deep``).
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("deep", settings.get_profile("suite"), max_examples=1000)
settings.load_profile("suite")
