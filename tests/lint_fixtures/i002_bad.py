"""Fixture: values provably escaping a Range contract at param/return."""

from repro.contracts import Probability


def response(p: Probability) -> float:
    return 3.0 * p


def caller() -> float:
    # 1.5 is provably outside the parameter's [0, 1] contract.
    return response(1.5)


def bad_return() -> Probability:
    # -0.25 is provably outside the declared [0, 1] return contract.
    return -0.25


class Dropper:
    def set_p(self, p: Probability) -> None:
        self.p = p


def typed_receiver(d: Dropper) -> None:
    # The receiver's class comes from the parameter annotation.
    d.set_p(1.5)


def constructed_receiver() -> None:
    # The receiver's class comes from the constructor call.
    d = Dropper()
    d.set_p(1.5)
