"""R001 fixture: a well-formed figure module."""

from repro.experiments.jobs import indexed, job


def jobs(scale="fast"):
    return indexed([job("fig01", "alpha", seed=1)])


def reduce(results):
    return results
