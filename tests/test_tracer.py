"""The benchmark's tracer (perfbench/tracer.py) wraps pmrc functions by the
name each caller looks up. A refactor that unbinds one of those names must
fail here, not only in a traced benchmark run."""

import importlib.util
import os

from pmrc import cli, simulator
from pmrc.shards import shard_filename

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_codec_and_simulator_spans(tmp_path):
    src = tmp_path / "in.bin"
    data = bytes(range(256)) * 4
    src.write_bytes(data)
    out = tmp_path / "shards"
    scenario = {
        "mode": "mbr", "k": 2, "d": 3, "n": 6, "q": 23, "blocks": 2,
        "events": [
            {"op": "fail", "node": 1},
            {"op": "repair", "node": 1, "s": 0, "t": 1, "corrupt": [3]},
            {"op": "reconstruct", "s": 1, "t": 0, "erase": [2]},
        ],
    }
    with load_tracer().Tracer() as tracer:
        assert cli.main([
            "encode", str(src), "-o", str(out), "--mode", "mbr",
            "-k", "2", "-d", "3", "-n", "5",
        ]) == cli.EXIT_OK
        os.remove(out / shard_filename(1))
        dest = tmp_path / "back.bin"
        assert cli.main(["reconstruct", str(out), "-o", str(dest)]) == cli.EXIT_OK
        assert cli.main(["repair", str(out), "--node", "1"]) == cli.EXIT_OK
        reports, stats = simulator.run_scenario(scenario)
    assert dest.read_bytes() == data
    assert stats["successes"] == stats["events"] == 3
    names = {span.name for span in tracer.spans}
    want = {"shards.encode", "shards.reconstruct", "shards.repair", "simulator.run"}
    assert want <= names, want - names
