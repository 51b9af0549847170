from hypothesis import settings

# `pytest --hypothesis-profile=ci`: the same examples on every run, and a
# failing example printed with the blob that reproduces it.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
