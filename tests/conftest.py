from hypothesis import settings

# CI runs `pytest --hypothesis-profile=ci`: property tests draw the same
# examples on every run, so a rare draw cannot fail one build and pass the next.
settings.register_profile("ci", derandomize=True, deadline=None)
