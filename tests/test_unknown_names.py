"""Names the configuration does not accept fail fast, at construction, and
the error names both the bad value and every accepted one."""

import pytest

from repro.core.trainer import TrainerConfig
from repro.experiments.cli import main as cli_main
from repro.grouping import make_grouper
from repro.parallel import ParallelMap

BACKENDS = ("serial", "process")
SAMPLING_METHODS = ("random", "rcov", "srcov", "esrcov", "varopt")
GROUPERS = ("covg", "rg", "cdg", "kldg", "fedgroup")


@pytest.mark.parametrize(
    "build, bad, accepted",
    [
        (lambda: ParallelMap("thread"), "thread", BACKENDS),
        (lambda: TrainerConfig(parallel_backend="thread"), "thread", BACKENDS),
        (
            lambda: TrainerConfig(sampling_method="adaptive"),
            "adaptive", SAMPLING_METHODS,
        ),
        (lambda: make_grouper("covg_gamma"), "covg_gamma", GROUPERS),
    ],
    ids=["parallel-map", "config-backend", "config-sampling", "grouper"],
)
def test_unknown_name_fails_fast(build, bad, accepted):
    with pytest.raises((ValueError, KeyError)) as info:
        build()
    message = str(info.value)
    assert repr(bad) in message
    for name in accepted:
        assert repr(name) in message


def test_cli_rejects_unknown_backend_before_running(capsys):
    assert cli_main(["fig5", "--parallel", "thread"]) == 2
    err = capsys.readouterr().err
    assert "'thread'" in err
    for name in BACKENDS:
        assert repr(name) in err
