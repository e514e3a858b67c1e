"""The benchmark traces randcompare functions by name (bench/spans.py,
LAYERS). A name that stops resolving breaks the traced benchmark run with
an AttributeError, so every traced target must still exist."""
import importlib
import sys
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    # executed from its source, so that no bytecode is written under bench/
    module = types.ModuleType("bench_spans")
    sys.modules[module.__name__] = module  # dataclasses looks the module up
    try:
        exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


def _resolves(home: str, attr: str) -> bool:
    owner = importlib.import_module(home)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_target_resolves():
    targets = [target for layer in _load_spans().LAYERS for target in layer.targets]
    assert ("randcompare.designs", "RngStream.generator") in targets
    assert ("randcompare.inference", "welch_t_test") in targets
    missing = [f"{home}:{attr}" for home, attr in targets if not _resolves(home, attr)]
    assert missing == []
