"""Pinned digests of fault-injected runs.

Every run here goes through the fault runtime, so these digests pin
the delivery pipeline *under faults*: which packets are lost,
duplicated, delayed or dropped on arrival, what the seeded fault RNG
draws and in which order, and everything downstream of that (ledger,
verdict, retry/fallback accounting).  Each digest is the sha256 of

* the ``repro demo <id> --json`` document of the run,
* its ``fault_summary``, and
* ``network.trace.to_jsonl()`` (every delivered packet's wire record),

plus, in the ``counters`` and ``sampled`` obs tiers, the metrics
registry snapshot and (``sampled``) the recorded span set.  The
values were recorded with the per-packet fault checks and the
closure-scheduled delivery route; the compiled per-link checks and
the pooled delivery events must reproduce them byte for byte.

Regenerate (only when a change is *meant* to alter faulted output)::

    PYTHONPATH=src python tests/test_fault_goldens.py
"""

import hashlib
import json

import pytest

from repro import obs
from repro.core.serialize import scenario_run_to_dict
from repro.faults import FaultPlan, HostCrash, LinkFault, Partition
from repro.obs import export as obs_export
from repro.scenario import run_scenario

#: Per scenario: the host the crash/partition/curious plans target,
#: and the simulated time that falls mid-run for it.
TARGETS = {
    "mixnet": ("mix-2", 0.02),
    "odns": ("oblivious-resolver", 0.12),
    "mpr": ("relay-2", 0.09),
    "odoh": ("oblivious-proxy", 0.12),
    "privcount": ("share-keeper-2", 0.43),
}


def plan_for(kind, scenario):
    host, mid = TARGETS[scenario]
    if kind == "loss":
        return FaultPlan.uniform_loss(0.15, seed=3)
    if kind == "dup-reorder-jitter":
        return FaultPlan(
            seed=4,
            links=(LinkFault(duplicate=0.3, reorder=0.25, jitter=0.004),),
        )
    if kind == "crash":
        return FaultPlan(seed=5, crashes=(HostCrash(host=host, at=mid),))
    if kind == "partition":
        return FaultPlan(
            seed=6,
            partitions=(
                Partition(a=(host,), b=("*",), start=mid * 0.5, end=mid * 1.5),
            ),
        )
    if kind == "curious":
        return FaultPlan(seed=7, curious=(host,))
    raise ValueError(kind)


PLAN_KINDS = ("loss", "dup-reorder-jitter", "crash", "partition", "curious")


def _canonical(document):
    return json.dumps(document, sort_keys=True, ensure_ascii=False)


def fault_run_digest(scenario, kind, mode="off"):
    """sha256 over the artifacts of one faulted run in obs ``mode``."""
    plan = plan_for(kind, scenario)
    if mode == "off":
        run = run_scenario(scenario, faults=plan)
        extra = []
    else:
        sampler = obs.SpanSampler(rate=0.4, seed=0) if mode == "sampled" else None
        with obs.capture(mode=mode, sampler=sampler) as (tracer, registry):
            run = run_scenario(scenario, faults=plan)
        extra = [_canonical(registry.snapshot())]
        for span in tracer.spans:
            record = obs_export.span_to_dict(span)
            record.pop("wall_ms", None)
            extra.append(_canonical(record))
    parts = [
        json.dumps(scenario_run_to_dict(run), ensure_ascii=False, indent=2),
        _canonical(run.fault_summary),
        run.network.trace.to_jsonl(),
        *extra,
    ]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


CASES = [
    (scenario, kind, mode)
    for scenario in TARGETS
    for kind in PLAN_KINDS
    for mode in ("off", "counters")
] + [("mixnet", "loss", "sampled"), ("odns", "loss", "sampled")]

PINNED = {
    "mixnet/loss/off": "c829101ec77563d69a2d295d895074780b6572cf1ba02daf009ca6045f9ab8a4",
    "mixnet/loss/counters": "764f977f5a929f7ba69505130e87184dd5532d7e309d17960b73736f59d17ee3",
    "mixnet/dup-reorder-jitter/off": "b258b84c8d45eebe5966c3a763019c712be282a33f6a424c6415ebd46ef59445",
    "mixnet/dup-reorder-jitter/counters": "bbabab95e62e8990075da1a5c4fb6d347bf2aed31e3c7fe2c34fb0b378c1019c",
    "mixnet/crash/off": "50f7489f29096ea48739b7398422fbc9737c9f23a1952f78982e78aeeb68499b",
    "mixnet/crash/counters": "9fcd4839c8f21d1e868e76aa4260386a38d66e0201c7ed85ae4f0ea3997c1347",
    "mixnet/partition/off": "d1c75605df2596edf2894d793603c3dfc2bca0aaeb65d5ae571146ca311657de",
    "mixnet/partition/counters": "5b232cc61d367ab95187b39907e11b4d25c9ad61aa5ee8ce3144700b00ca4077",
    "mixnet/curious/off": "e76554a76f6a86b0cad45322cef22616afd62226bac68208ec8e6507541eb624",
    "mixnet/curious/counters": "02b295429d5a5e1439292e6e6aae7d75122cb53decd0e64058b9278f980a86c4",
    "odns/loss/off": "4aa5004193208e14e3714068d9583b0aa5f7f0b44e725705c1543a5487425414",
    "odns/loss/counters": "22d756fc3ee0034ff4a9a879bec4fa7a133fb3dcf46eccf31424ce2e9eee3035",
    "odns/dup-reorder-jitter/off": "d4a549bb48a0dc5cef39bcd790346c45af77925a891e5606b46041267139e423",
    "odns/dup-reorder-jitter/counters": "81b2a80c41c29e122f95ed72b8779faa8decabc2724fe5699eab990ca4b3c6e6",
    "odns/crash/off": "49df61b1796b604dcb18d0127565b315ebd4bdb9951c2a916ba569134c159d10",
    "odns/crash/counters": "f1c05f463fe2aa644daac6a4094469501ec5a47939fd46cff76b762e12b09fc2",
    "odns/partition/off": "6bc591345fabd198f92022cf6aaa8f8b606e4b523a5560f936c60e65f48698be",
    "odns/partition/counters": "2cd07a4089ddd249b3fae8ebc6e6c8307a331eb3e7d7f2c35b0d5756c714d851",
    "odns/curious/off": "4999e6bd1bab522348298c2d8c27d375ab15ebc43108e10da4d854ce57a177dd",
    "odns/curious/counters": "b2ad4aa2dcc721d9953e87d5894735bf705fb35c870064eb81988ff93cec3229",
    "mpr/loss/off": "cb4411fbdff986c4352559c548656e8ba89b9fb91eb995c4624281d8d075d174",
    "mpr/loss/counters": "803b6840ff1a93cc317c2ab4e36c657cef2bb57b75b32252ac275d554a2d2ca5",
    "mpr/dup-reorder-jitter/off": "f06cd6ad716201443b0a4e72ec0572bc2d58d5381eadf85e9a561dcc82037637",
    "mpr/dup-reorder-jitter/counters": "47a845f36547b6b73f3dbafb2957379e22c09837de6290f5867110f54f05cc24",
    "mpr/crash/off": "c692060480409ea87c061161ec1e46edc96f1a4772526cf3b203107684f93c6a",
    "mpr/crash/counters": "b168c84eedbe4ea19396ecb703a07782314522ef855a868789e4749c02ae9c7c",
    "mpr/partition/off": "c4655057673111cbb9ab361b017563d15978c286605641b9407a8abebc2dd33c",
    "mpr/partition/counters": "a18731ba71b0080f3247ad94b944eeb94c9d5b02332bbbb3ed7b420e6b190675",
    "mpr/curious/off": "f3f438a6eeb36c9da231c6b8e9444ce0e13fe5c5c8f3aea060b1146ec5beca14",
    "mpr/curious/counters": "a59c77494bf5a4f2a64634a28f0b764488b72e91b579d709de8e69eece414788",
    "odoh/loss/off": "bddbbf088049991ef988bbff3ab1dcb9590ba413acc1f384b6976901106c635d",
    "odoh/loss/counters": "312bf988aaabaedf08614c447f1f4f318d3c8c407fd05eff2193cd75bbc8f2b0",
    "odoh/dup-reorder-jitter/off": "4a05bf7372fe32ed9d8861a88f3666bc4c32882dbbc81f9cc8c92d439f34a285",
    "odoh/dup-reorder-jitter/counters": "4eedc068116ca734fccefa73535dd31bd760255f3b60b8e84acb953f989f353e",
    "odoh/crash/off": "53e8164cd1b35f51c16bd37c012a9617425fe483f92b171e20c2b366aff942eb",
    "odoh/crash/counters": "e93e7532b56183a25299bf7d6a5c4330c659f5f22aed5d5691d283b122909170",
    "odoh/partition/off": "3bb6d16eaa78cb83e842cd07143f1094c071863ef16ec2aef9986f92ae4dc765",
    "odoh/partition/counters": "4e76002a8a185917756c43fc5f699babf276c46e314a8516e904e32562a4b282",
    "odoh/curious/off": "f06dca94cd2187db33bdfb1cf99d7fb4004eff660563a07a32f987532efc8f06",
    "odoh/curious/counters": "55bc5193d13b813534a68d36a59bf6a9a20cc9d01f1bf866ef69e79d718d0700",
    "privcount/loss/off": "8d437f3fedcb2f7b4dc033d84f6281a1d5663523acbb7d5c856e527509de25e1",
    "privcount/loss/counters": "ba5c74a0b6d14f828e821c30e4145bfb87896090bf83795e3270935f5edd8a38",
    "privcount/dup-reorder-jitter/off": "275d0c2daadaacd8e7c67f7381ef0dfac41f3b5fe9063887334f514ff91a882f",
    "privcount/dup-reorder-jitter/counters": "62af4c70beb30912dfa3bca6c027a346083011d12c3b4d57557b3e85a2c9249c",
    "privcount/crash/off": "a1b5c29c663b18a21607e5dad10a91404324bac45e7592d79a6253e02bfbb1d1",
    "privcount/crash/counters": "5c6fe3f1453221252878ea53538705bd64391690240da5c4a4fb9d1386011844",
    "privcount/partition/off": "aa73738aad57ff06078f90004fca4e836ecf05c15e771864becdb5fff3f53c45",
    "privcount/partition/counters": "6c1d01addf1e1b61199f47c30acfbd1dae5e24459c0b2b3ddfb0c341b49e9649",
    "privcount/curious/off": "db70f557bcca247dc5c43c19c54555bae92982b0931c858e6586f7584b638864",
    "privcount/curious/counters": "5ec4e80ff7ad23788f9a61259e79981771e48f48d086251fcd37e66f3f76a162",
    "mixnet/loss/sampled": "d6a06d72ab3480c268e4bf99a4d9227e24d36a2061308707e279f611d5477719",
    "odns/loss/sampled": "0c75b7fc35eae139a1a85f0106fc7664d6d5222ce04ebf8228f0a11cd3c9fbab",
}


@pytest.mark.parametrize("scenario,kind,mode", CASES)
def test_faulted_run_digest_pinned(scenario, kind, mode):
    assert fault_run_digest(scenario, kind, mode) == PINNED[
        f"{scenario}/{kind}/{mode}"
    ]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{"/".join(case)}": "{fault_run_digest(*case)}",')
