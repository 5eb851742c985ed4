"""Pins the exact content of generated traces.

The golden stats cover only a few short traces, and traced and untraced
runs read the same columns, so neither would notice an encoding slip in
the generator.  These digests hash every field of every op of a spread of
workloads (pointer-chasing, streaming, compute-bound, four-threaded Parsec,
branch-heavy and a co-run mix), so any change to what the generator emits
shows up here.  Every SPEC and Parsec profile is pinned as well: each at
2,000 instructions, where ``scaled_for_sample`` shrinks its working sets,
and povray and mcf also at 25,000, above the scaling reference, where they
run unscaled as the long benchmark samples do.
"""

import gc
import hashlib

import pytest

from repro.cpu.instructions import MicroOp
from repro.workloads.generator import cached_workload, generate_workload
from repro.workloads.profiles import get_profile

SEED = 1234


@pytest.fixture(autouse=True)
def _empty_trace_cache():
    """Generate every trace afresh: the cache may not hand one back."""
    cached_workload.cache_clear()
    yield
    cached_workload.cache_clear()


def _op_fields(op: MicroOp) -> tuple:
    return (op.kind.value, op.pc, op.sequence, op.address,
            tuple(op.src_regs), op.dst_reg, op.execution_latency, op.taken,
            op.target, op.force_mispredict,
            tuple((access.address, access.is_store, access.is_instruction,
                   access.issue_offset) for access in op.wrong_path),
            op.is_context_switch, op.is_sandbox_entry)


def workload_digest(workload) -> str:
    digest = hashlib.sha256()
    for trace in workload:
        digest.update(repr((trace.benchmark, trace.thread_id,
                            trace.process_id)).encode())
        for op in trace.ops:
            digest.update(repr(_op_fields(op)).encode())
    return digest.hexdigest()[:24]


@pytest.mark.parametrize("name, instructions, expected", [
    ("mcf", 8000, "dbbcb19b41b83dc69aec198b"),
    ("povray", 8000, "2efa709f1f1baec8f39766cd"),
    ("lbm", 8000, "f242e97806fabf11d8351873"),
    ("canneal", 2000, "41cc168dbb010fd1fca1612e"),
    ("gobmk", 3000, "9a389ce0378ba27e94e3ca31"),
    ("mix-pointer-stream", 2000, "38d7deb2249220bbf0667053"),
])
def test_generated_trace_content_is_pinned(name, instructions, expected):
    workload = generate_workload(get_profile(name), instructions, seed=SEED)
    assert workload_digest(workload) == expected


#: Every SPEC and Parsec profile at 2,000 instructions, seed 1234.
EVERY_PROFILE_AT_2000 = {
    "astar": "1129a626c757de9deaf7ee4e",
    "bwaves": "b36cadb50f539104e8fdca3a",
    "bzip2": "b261841945f5c56027521172",
    "cactusADM": "3b2f448dddc1655c5010e73d",
    "calculix": "b499e93cdf0da36204a9d696",
    "gamess": "154b232f89bd9a010fdc05df",
    "gcc": "a995db969cd7ffd17614462d",
    "GemsFDTD": "9f10ad0f486dac9de887cbd5",
    "gobmk": "78dee064eab54e79f5455112",
    "gromacs": "04fa7712264bcf368d1ec88f",
    "h264ref": "39877186b5c9fa53497c3550",
    "hmmer": "3e50139e6d7480270547434b",
    "lbm": "ee6018566cf1ca44dbe7e66b",
    "leslie3d": "6c17fd4da8305aef2bb3615a",
    "libquantum": "26ed953a9d714fe60b71f0c4",
    "mcf": "63474eb861d3d184ff5b7cd1",
    "milc": "864754c55bf8e252c05a8fbb",
    "namd": "326c68403682d53666722c2f",
    "omnetpp": "f9f232dd61980edaf7fc03c0",
    "povray": "a98c336212112d8d59d1a003",
    "sjeng": "34502e058755d4bb97a5ad94",
    "soplex": "4fa509b7fcaf04fec7e39edf",
    "sphinx3": "26968292154a534b90ad4528",
    "tonto": "91e230a97a216410e8da20da",
    "xalancbmk": "ff84e305284282e170a5f089",
    "zeusmp": "040d9ecf95385f576d7654d3",
    "blackscholes": "8da56341e70424a3352e5a58",
    "canneal": "41cc168dbb010fd1fca1612e",
    "ferret": "2967f1af608df31cbee0849b",
    "fluidanimate": "40946cb0aa47f1a35d023b72",
    "freqmine": "0d0e3045ab215930aa746e76",
    "streamcluster": "b2ba4f4ffb606c84fde6b822",
    "swaptions": "f49f17e1a69172237ad86632",
}


@pytest.mark.parametrize("name", list(EVERY_PROFILE_AT_2000))
def test_every_profile_trace_is_pinned(name):
    workload = generate_workload(get_profile(name), 2000, seed=SEED)
    assert workload_digest(workload) == EVERY_PROFILE_AT_2000[name]


@pytest.mark.parametrize("name, instructions, expected", [
    ("povray", 25000, "cfc6bd3a9c47ed8d3e5a8dc4"),
    ("mcf", 25000, "543248119ae87f0d9bd37803"),
])
def test_unscaled_trace_content_is_pinned(name, instructions, expected):
    """Samples above ``scaled_for_sample``'s 20,000-instruction reference
    keep the profile's full working sets and code footprint."""
    profile = get_profile(name)
    assert profile.scaled_for_sample(instructions) is profile
    workload = generate_workload(profile, instructions, seed=SEED)
    assert workload_digest(workload) == expected


def _live_micro_ops() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is MicroOp)


def test_generated_traces_keep_no_micro_ops_resident():
    """A trace lives only as packed columns; ops are built on demand."""
    gc.collect()
    before = _live_micro_ops()
    workload = generate_workload(get_profile("mcf"), 5000, seed=SEED)
    gc.collect()
    assert _live_micro_ops() <= before
    wrong_paths = workload.thread(0).packed().wrong_paths
    empty = [entry for entry in wrong_paths if not entry]
    assert empty
    assert all(entry is empty[0] for entry in empty)
