"""R001 fixture: a figure module that registers the scenario it uses."""

from repro.experiments.jobs import indexed, job, scenario


@scenario("gamma")
def gamma(jb):
    return 1.0


def jobs(scale="fast"):
    return indexed([job("fig04", "gamma", seed=1)])


def reduce(results):
    return results
