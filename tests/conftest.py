from hypothesis import settings

# A failing hypothesis test prints its @reproduce_failure blob, so the example replays without a new shrink.
settings.register_profile("print_blob", print_blob=True)
settings.load_profile("print_blob")
