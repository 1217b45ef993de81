"""INI-backed experiment configuration with a lossless round-trip.

An experiment names a dataset, a method list and a seed list, and carries
the full trainer configuration. `from_ini(to_ini(cfg))` reproduces the
dataclass exactly; an unknown section or key is an error.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import numbers
from dataclasses import dataclass, field

from .objectives import GVCLConfig
from .runner import METHODS, RunnerConfig

DATASETS = ("split_mnist", "toy_clusters", "synthetic_pair")
SECTIONS = ("experiment", "runner", "gvcl")


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    dataset: str = "toy_clusters"
    methods: tuple = ("gvcl",)
    seeds: tuple = (0,)
    data_seed: int = 0
    runner: RunnerConfig = field(default_factory=RunnerConfig)

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}; expected one of {DATASETS}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {sorted(METHODS)}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        for s in (*self.seeds, self.data_seed):
            if not isinstance(s, numbers.Integral) or isinstance(s, bool):
                raise ValueError(f"seeds must be integers, got {s!r}")


def _set_section(parser, section, obj, skip=()):
    parser[section] = {}
    for f in dataclasses.fields(obj):
        if f.name in skip:
            continue
        parser[section][f.name] = repr(getattr(obj, f.name))


def _read_section(parser, section, cls, **extra):
    kwargs = dict(extra)
    known = [f for f in dataclasses.fields(cls) if f.name not in kwargs]
    unknown = sorted(set(parser.options(section)) - {f.name for f in known})
    if unknown:
        raise ValueError(
            f"unknown key(s) in [{section}]: {', '.join(unknown)}; "
            f"expected some of {', '.join(f.name for f in known)}"
        )
    for f in known:
        if parser.has_option(section, f.name):
            kwargs[f.name] = _coerce(parser.get(section, f.name), f.type)
    return cls(**kwargs)


def _unquote(text):
    return text.strip().strip("'\"")


def _tuple(text):
    """A tuple literal of ints and (optionally quoted) strings."""
    out = []
    for s in text.strip().strip("()").split(","):
        if not s.strip():
            continue
        s = _unquote(s)
        try:
            out.append(int(s))
        except ValueError:
            out.append(s)
    return tuple(out)


_COERCE = {"int": int, "float": float, "str": _unquote, "tuple": _tuple}


def _coerce(text, type_hint):
    """Parse an INI value by the field's declared type, which must be one of
    int, float, str or tuple."""
    name = type_hint if isinstance(type_hint, str) else getattr(type_hint, "__name__", "")
    if name not in _COERCE:
        raise TypeError(f"unsupported config field type {type_hint!r}")
    return _COERCE[name](text)


def to_ini(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    _set_section(parser, "experiment", cfg, skip=("runner",))
    _set_section(parser, "runner", cfg.runner, skip=("gvcl",))
    _set_section(parser, "gvcl", cfg.runner.gvcl)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def from_ini(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    unknown = sorted(set(parser.sections()) - set(SECTIONS))
    if unknown:
        raise ValueError(
            f"unknown section(s) {', '.join(unknown)}; expected some of {', '.join(SECTIONS)}"
        )
    gvcl = _read_section(parser, "gvcl", GVCLConfig) if parser.has_section("gvcl") else GVCLConfig()
    runner = (
        _read_section(parser, "runner", RunnerConfig, gvcl=gvcl)
        if parser.has_section("runner")
        else RunnerConfig(gvcl=gvcl)
    )
    if not parser.has_section("experiment"):
        raise ValueError("config is missing the [experiment] section")
    return _read_section(parser, "experiment", ExperimentConfig, runner=runner)


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return from_ini(f.read())


def save_config(cfg: ExperimentConfig, path):
    with open(path, "w") as f:
        f.write(to_ini(cfg))
