"""The fixed operation pools of the three workloads.

An operation is one ``youngbound`` invocation: a subcommand, the text of
the scenario file it reads, and extra flags.  Every pool entry has a stored
reference in ``refs.json`` (see ``make_refs.py``); the seed only orders
the pool and, for ``exact-sweep``, picks which exponent triples the two
sweeps of a pass use.

The corpus module of the package is read here to generate the scenario
texts; it is not part of any timed operation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli-cold", "exact-sweep", "numerics")


@dataclass(frozen=True)
class Op:
    id: str
    command: str
    scenario: str  # file text
    flags: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return self.id.split("/", 1)[0]

    @property
    def slot(self) -> str:
        """The place of the operation in a batch: its id, except that every
        sweep of one flavor shares the slot ``sweep/<flavor>``."""
        return "/".join(self.id.split("/")[:2]) if self.kind == "sweep" else self.id


def _triple(values) -> str:
    return ", ".join(str(v) for v in values)


def _scenario(**fields) -> str:
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


# ---------------------------------------------------------------------------
# cli-cold: the shipped scenario files
# ---------------------------------------------------------------------------

def command_for(text: str) -> str:
    """The subcommand a shipped scenario file is written for."""
    keys = {
        line.split("#", 1)[0].partition("=")[0].strip().lower()
        for line in text.splitlines()
    }
    if "kind" in keys:
        return "probe"
    if "which" in keys:
        return "verify-lemmas"
    if "t_min" in keys:
        return "sweep"
    return "check"


def cli_cold_ops(root: Path) -> list[Op]:
    ops = []
    for path in sorted((root / "scenarios").glob("*.txt")):
        text = path.read_text()
        ops.append(Op(f"cli/{path.stem}", command_for(text), text))
    return ops


# ---------------------------------------------------------------------------
# exact-sweep: every corpus check, and 21^3-row weight sweeps
# ---------------------------------------------------------------------------

SWEEP_RANGE = dict(t_min="-5/8", t_max="5/8", t_step="1/16")  # 21 weights, 9261 rows


def _check_ops(corpus) -> list[Op]:
    ops = []
    for entry in corpus:
        prm = entry.params
        # Convolution entries mirror their x-side block into (q, s) when a
        # modulation setting needs one, as the boundedness sweep does.
        q = prm.q if prm.q is not None else prm.p
        s = prm.s if prm.s is not None else prm.t
        base = dict(flavor=entry.flavor, d=prm.d, p=_triple(prm.p), t=_triple(prm.t))
        if entry.flavor == "multiplication":
            ops.append(Op(f"check/{entry.name}/lebesgue", "check",
                          _scenario(**base, q=_triple(q), s=_triple(s))))
        else:
            ops.append(Op(f"check/{entry.name}/lebesgue", "check", _scenario(**base)))
            ops.append(Op(f"check/{entry.name}/weak", "check",
                          _scenario(**base, setting="weak")))
        for space in ("M", "W"):
            ops.append(Op(
                f"check/{entry.name}/modulation-{space}", "check",
                _scenario(**base, setting="modulation", space=space,
                          q=_triple(q), s=_triple(s)),
            ))
    return ops


def sweep_candidates(corpus) -> dict[str, list[Op]]:
    """Distinct exponent triples of the corpus, one sweep each, by flavor."""
    out: dict[str, list[Op]] = {"convolution": [], "multiplication": []}
    seen = set()
    for entry in corpus:
        key_name = "p" if entry.flavor == "convolution" else "q"
        triple = _triple(entry.params.p if key_name == "p" else entry.params.q)
        if (entry.flavor, triple) in seen:
            continue
        seen.add((entry.flavor, triple))
        text = _scenario(flavor=entry.flavor, d=1, **{key_name: triple}, **SWEEP_RANGE)
        out[entry.flavor].append(Op(f"sweep/{entry.flavor}/{triple.replace(' ', '')}",
                                    "sweep", text))
    return out


# ---------------------------------------------------------------------------
# numerics: probes, ladders, calibrations, slices and operator bounds
# ---------------------------------------------------------------------------

# The product-identity tuple of the modulation ladders.  Its dilated family is
# not extremal for modulation norms, so neither ladder passes by design: the
# convolution ladder exits 1 and the multiplication ladder 3.  Those exit
# codes are their references.
_MODULATION = dict(d=1, p="2, 2, 2", t="1/4, 1/4, 0", q="2, 1, 2", s="0, 0, 0")


def _numerics_ops(corpus) -> list[Op]:
    from youngbound.corpus import shadow_tuple

    ops = []
    for entry in corpus:
        if entry.probe is None:
            continue
        shadow = shadow_tuple(entry)
        fields = dict(kind=entry.probe, d=1, p=_triple(shadow.p), t=_triple(shadow.t))
        if entry.probe == "translation":
            fields["pair"] = _triple(entry.probe_pair)
            if entry.probe_offsets is not None:
                fields["offsets"] = _triple(entry.probe_offsets)
        ops.append(Op(f"probe/{entry.name}", "probe", _scenario(**fields)))
    for entry in corpus:
        if entry.expected.value != "Bounded":
            continue
        prm = entry.params
        fields = dict(kind="boundedness", flavor=entry.flavor, d=1,
                      p=_triple(prm.p), t=_triple(prm.t))
        if entry.flavor == "multiplication":
            fields.update(q=_triple(prm.q), s=_triple(prm.s))
        ops.append(Op(f"ladder/{entry.name}", "probe", _scenario(**fields)))
    for flavor in ("modulation-convolution", "modulation-multiplication"):
        for stride in (8, 2):
            ops.append(Op(
                f"modulation/{flavor}/stride{stride}", "probe",
                _scenario(kind="boundedness", flavor=flavor, space="M",
                          stride=stride, **_MODULATION),
            ))
    for p in (1, 2, 4):
        for t in (0, 1):
            ops.append(Op(f"calibration/norm-slope/p{p}-t{t}", "probe",
                          _scenario(kind="norm-slope", exponent=p, weight=t)))
    for t in (0, 1):
        for alpha in (0.1, 0.25):
            ops.append(Op(f"calibration/lower-bound/t{t}-a{alpha}", "probe",
                          _scenario(kind="lower-bound", t1=t, t2=t, alpha=alpha)))
    for region in range(1, 6):
        ops.append(Op(f"slices/region{region}", "verify-lemmas",
                      _scenario(which="slices", region=region, p=2, t="1, 1, 1")))
    for case in (1, 2, 3):
        text = _scenario(which="operator", case=case, p="2, 2, 2")
        ops.append(Op(f"operator/case{case}/n512", "verify-lemmas", text, ("--seed", "0")))
        ops.append(Op(f"operator/case{case}/n1024", "verify-lemmas", text,
                      ("--seed", "0", "--grid-n", "1024", "--grid-L", "32")))
    ops.append(Op("operator/case1/r0", "verify-lemmas",
                  _scenario(which="operator", case=1, p="1, 2, 2"), ("--seed", "0")))
    return ops


# ---------------------------------------------------------------------------
# Pools and passes
# ---------------------------------------------------------------------------

def reference_ops(root: Path) -> list[Op]:
    """Every operation that has a stored reference."""
    from youngbound.corpus import CORPUS

    sweeps = sweep_candidates(CORPUS)
    return [
        *cli_cold_ops(root),
        *_check_ops(CORPUS),
        *sweeps["convolution"],
        *sweeps["multiplication"],
        *_numerics_ops(CORPUS),
    ]


class Pool:
    """Yields the passes of one workload; each pass is a fixed batch."""

    def __init__(self, workload: str, root: Path, seed: int):
        from youngbound.corpus import CORPUS

        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.rng = random.Random(seed)
        self.sweeps: dict[str, list[Op]] = {}
        if workload == "cli-cold":
            self.fixed = cli_cold_ops(root)
        elif workload == "exact-sweep":
            self.fixed = _check_ops(CORPUS)
            self.sweeps = sweep_candidates(CORPUS)
        else:
            self.fixed = _numerics_ops(CORPUS)

    def all_ops(self) -> list[Op]:
        return [*self.fixed, *(op for ops in self.sweeps.values() for op in ops)]

    def next_pass(self) -> list[Op]:
        """The batch in a seed-drawn order.  The order is shuffled whole, not
        kept by kind, so that the repeats of each operation fall at
        different moments of the run and do not share one slow phase of
        the host."""
        batch = list(self.fixed)
        for flavor in sorted(self.sweeps):
            batch.append(self.rng.choice(self.sweeps[flavor]))
        self.rng.shuffle(batch)
        return batch
