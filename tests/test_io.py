"""Graph I/O round trips (repro.graphs.io)."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs import (
    Graph,
    random_connected_graph,
    read_dimacs,
    read_edgelist,
    read_graph_binary,
    write_dimacs,
    write_edgelist,
    write_graph_binary,
)
from repro.graphs.io import graph_binary_info

SRC = Path(__file__).resolve().parents[1] / "src"

#: loads argv[1] in a fresh interpreter; prints the growth of resident
#: (VmRSS) and peak resident (VmHWM) memory in bytes, and the graph's
#: total weight (proof the load happened)
_RSS_PROBE = r"""
import sys
from repro.graphs.io import read_graph_binary

def status_kib():
    with open("/proc/self/status") as fh:
        rows = dict(line.split(":", 1) for line in fh)
    return [int(rows[key].split()[0]) for key in ("VmRSS", "VmHWM")]

before = status_kib()
g = read_graph_binary(sys.argv[1])  # the CRC check streams every column
total = g.total_weight  # and the weight column is read once more
after = status_kib()
print(*[(a - b) * 1024 for a, b in zip(after, before)], repr(total))
"""


class TestEdgelist:
    def test_roundtrip_exact(self, tmp_path):
        g = random_connected_graph(20, 60, rng=3, max_weight=7)
        path = tmp_path / "g.el"
        write_edgelist(g, path)
        assert read_edgelist(path) == g

    def test_roundtrip_float_weights(self):
        g = Graph.from_edges(3, [(0, 1, 0.123456789), (1, 2, 7.25)])
        buf = io.StringIO()
        write_edgelist(g, buf)
        buf.seek(0)
        g2 = read_edgelist(buf)
        assert g2.w.tolist() == g.w.tolist()

    def test_empty_graph(self):
        buf = io.StringIO()
        write_edgelist(Graph.empty(4), buf)
        buf.seek(0)
        g = read_edgelist(buf)
        assert g.n == 4 and g.m == 0

    def test_bad_header(self):
        with pytest.raises(GraphFormatError):
            read_edgelist(io.StringIO("nonsense\n"))

    def test_truncated_edge_line(self):
        with pytest.raises(GraphFormatError):
            read_edgelist(io.StringIO("2 1\n0 1\n"))

    def test_missing_edge_lines(self):
        with pytest.raises(GraphFormatError):
            read_edgelist(io.StringIO("4 3\n0 1 1.0\n"))

    def test_vectorized_writer_byte_parity(self):
        """The bulk writer must emit byte-identical text to the naive
        per-edge ``f"{u} {v} {w!r}"`` loop it replaced."""
        g = random_connected_graph(40, 200, rng=11, max_weight=9)
        g = g.with_weights(g.w * 0.3125 + 1 / 3)  # exercise float reprs
        buf = io.StringIO()
        write_edgelist(g, buf)
        naive = f"{g.n} {g.m}\n" + "".join(
            f"{u} {v} {w!r}\n" for u, v, w in g.edges()
        )
        assert buf.getvalue() == naive

    def test_single_edge(self):
        g = read_edgelist(io.StringIO("2 1\n0 1 2.5\n"))
        assert g.m == 1 and g.w[0] == 2.5


class TestDimacs:
    def test_roundtrip(self, tmp_path):
        g = random_connected_graph(15, 40, rng=5, max_weight=3)
        path = tmp_path / "g.dimacs"
        write_dimacs(g, path)
        g2 = read_dimacs(path)
        assert g2.n == g.n and g2.m == g.m
        assert g2.total_weight == pytest.approx(g.total_weight)

    def test_comments_and_default_weight(self):
        text = "c a comment\np cut 3 2\ne 1 2\ne 2 3 5\n"
        g = read_dimacs(io.StringIO(text))
        assert g.m == 2
        assert sorted(g.w.tolist()) == [1.0, 5.0]

    def test_one_based_conversion(self):
        g = read_dimacs(io.StringIO("p cut 2 1\ne 1 2 3\n"))
        assert (int(g.u[0]), int(g.v[0])) == (0, 1)

    def test_edge_before_problem_line(self):
        with pytest.raises(GraphFormatError):
            read_dimacs(io.StringIO("e 1 2 3\n"))

    def test_missing_problem_line(self):
        with pytest.raises(GraphFormatError):
            read_dimacs(io.StringIO("c only comments\n"))

    def test_float_weights_preserved(self):
        g = Graph.from_edges(2, [(0, 1, 2.5)])
        buf = io.StringIO()
        write_dimacs(g, buf)
        buf.seek(0)
        assert read_dimacs(buf).w[0] == pytest.approx(2.5)

    def test_comments_interleaved_with_edges(self):
        text = (
            "c preamble\np cut 4 3\ne 1 2 1\nc mid-stream comment\n"
            "e 2 3 2\nc another\ne 3 4 3\nc trailing\n"
        )
        g = read_dimacs(io.StringIO(text))
        assert g.m == 3
        assert sorted(g.w.tolist()) == [1.0, 2.0, 3.0]

    def test_blank_trailing_lines(self):
        g = read_dimacs(io.StringIO("p cut 2 1\ne 1 2 4\n\n\n   \n"))
        assert g.m == 1 and g.w[0] == 4.0

    def test_duplicate_problem_line_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            read_dimacs(io.StringIO("p cut 2 1\np cut 2 1\ne 1 2 1\n"))


class TestBinary:
    def _graph(self):
        return random_connected_graph(25, 80, rng=7, max_weight=6)

    def test_roundtrip_bit_identical(self, tmp_path):
        g = self._graph().with_weights(self._graph().w + 1 / 3)
        p1, p2 = tmp_path / "a.rpg", tmp_path / "b.rpg"
        write_graph_binary(g, p1)
        g2 = read_graph_binary(p1)
        assert g2 == g
        assert g2.u.tolist() == g.u.tolist()
        assert g2.w.tolist() == g.w.tolist()  # bit-exact floats
        write_graph_binary(g2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_info_without_load(self, tmp_path):
        g = self._graph()
        path = tmp_path / "g.rpg"
        write_graph_binary(g, path)
        info = graph_binary_info(path)
        assert info["n"] == g.n and info["m"] == g.m
        assert info["column_bytes"] == 24 * g.m
        assert info["file_bytes"] == path.stat().st_size

    def test_mmap_views_are_read_only(self, tmp_path):
        path = tmp_path / "g.rpg"
        write_graph_binary(self._graph(), path)
        g = read_graph_binary(path, mmap=True)
        for col in (g.u, g.v, g.w):
            # zero-copy: the public array is (a view of) the memmap
            assert isinstance(col, np.memmap) or isinstance(col.base, np.memmap)
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 0

    def test_materialized_load_matches_mmap(self, tmp_path):
        path = tmp_path / "g.rpg"
        write_graph_binary(self._graph(), path)
        a = read_graph_binary(path, mmap=True)
        b = read_graph_binary(path, mmap=False)
        assert a == b
        assert not isinstance(b.u, np.memmap)
        assert not isinstance(b.u.base, np.memmap)

    def test_column_corruption_detected(self, tmp_path):
        path = tmp_path / "g.rpg"
        write_graph_binary(self._graph(), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip a byte mid-column
        path.write_bytes(bytes(raw))
        with pytest.raises(GraphFormatError, match="CRC"):
            read_graph_binary(path)

    def test_header_corruption_detected(self, tmp_path):
        path = tmp_path / "g.rpg"
        write_graph_binary(self._graph(), path)
        raw = bytearray(path.read_bytes())
        raw[12] ^= 0xFF  # inside the header, before its CRC field
        path.write_bytes(bytes(raw))
        with pytest.raises(GraphFormatError, match="header CRC"):
            read_graph_binary(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "g.rpg"
        write_graph_binary(self._graph(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(GraphFormatError, match="truncated"):
            read_graph_binary(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "g.rpg"
        path.write_bytes(b"NOTAGRPH" + b"\x00" * 64)
        with pytest.raises(GraphFormatError, match="magic"):
            read_graph_binary(path)

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.rpg"
        write_graph_binary(Graph.empty(5), path)
        g = read_graph_binary(path)
        assert g.n == 5 and g.m == 0

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc"
    )
    def test_mmap_load_is_frugal(self, tmp_path):
        """Loading maps the columns instead of copying them: resident
        and peak resident memory grow by less than 2x their raw bytes."""
        rng = np.random.default_rng(2021)
        n, m = 2_000, 120_000
        u = rng.integers(0, n, size=m)
        v = (u + rng.integers(1, n, size=m)) % n
        g = Graph(n, u, v, rng.integers(1, 9, size=m).astype(np.float64))
        path = tmp_path / "big.rpg"
        write_graph_binary(g, path)
        column_bytes = graph_binary_info(path)["column_bytes"]
        out = subprocess.run(
            [sys.executable, "-c", _RSS_PROBE, str(path)],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        ).stdout.split()
        rss_delta, peak_delta, total = int(out[0]), int(out[1]), float(out[2])
        assert total == g.total_weight
        assert rss_delta < 2 * column_bytes, (rss_delta, column_bytes)
        assert peak_delta < 2 * column_bytes, (peak_delta, column_bytes)

    def test_solver_runs_on_mmap_graph(self, tmp_path):
        """End to end: a solver consumes the zero-copy view directly."""
        from repro.arena.solvers import stoer_wagner

        g = self._graph()
        path = tmp_path / "g.rpg"
        write_graph_binary(g, path)
        gm = read_graph_binary(path)
        assert stoer_wagner(gm).value == stoer_wagner(g).value
