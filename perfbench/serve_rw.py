"""``serve_rw``: served reads beside writes over HTTP.

A :class:`repro.server.QueryServer` runs in its own process (this file
with ``--serve``) over the TPC-H-shaped database.  One load process
drives it over two keep-alive HTTP connections: a reader, a closed loop
over a fixed statement set, and a writer, which sends one write after
every nine reads the reader completes, while the reader goes on.  So a
tenth of the operations are writes, and writes overlap reads.  Two
connections that both read made the run unsteady (README.md).  Writes
alternate between a value change (a lineitem's ship date, which
moves it across the statements' cutoffs but invalidates no compiled
distribution) and a probability reassignment (``p=``, which drops the
distributions that depend on the row's variable).

Every read is checked against the oracle for some database state between
the writes acknowledged before the read was sent and the writes sent
before its reply arrived; the server's ``db_generation`` orders the
writes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter, defaultdict

if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import common, oracles  # noqa: E402

#: The statement set: Q1 COUNT at four ship-date cutoffs close together,
#: so reads are of like cost.  Each answer is checked on its groups'
#: presence probabilities.
CUTOFFS = (1500, 1600, 1700, 1800)
STATEMENTS = tuple(
    "SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem "
    f"WHERE l_shipdate <= {cutoff} GROUP BY l_returnflag, l_linestatus"
    for cutoff in CUTOFFS
)

#: The served database is four times the other workloads' (SF 0.4, 2400
#: lineitems): at SF 0.1 a read is ~7 ms, and the scheduling jitter of
#: two processes talking over loopback moved run medians by ~20%.
SCALE_FACTOR = 0.4
CYCLE = 10  # operations per cycle: CYCLE - 1 reads, then one write
COUNT_CYCLES = 3
P_RANGE = (0.5, 0.95)


def write_targets(lineitems) -> list[tuple[int, int, int]]:
    """Lineitems whose (orderkey, partkey, suppkey) picks exactly one row."""
    keys = Counter(values[:3] for values, _ in lineitems)
    return sorted(key for key, n in keys.items() if n == 1)


class WriteStream:
    """Seeded writes, alternating value and ``p=`` changes."""

    def __init__(self, seed: int, targets):
        self.rng = random.Random(seed)
        self.targets = targets
        self.count = 0

    def next(self) -> dict:
        key = self.rng.choice(self.targets)
        where = {"l_orderkey": key[0], "l_partkey": key[1], "l_suppkey": key[2]}
        self.count += 1
        if self.count % 2:
            return {"key": key, "where": where,
                    "set": {"l_shipdate": self.rng.randint(0, 2400)}}
        return {"key": key, "where": where, "p": round(self.rng.uniform(*P_RANGE), 6)}


# -- oracle over database states ------------------------------------------


class StateOracle:
    """Statement answers for the database after the first k writes."""

    def __init__(self, lineitems, writes):
        self.writes = writes  # in server (generation) order
        self.states = [[(list(values), p) for values, p in lineitems]]
        self._answers: dict = {}

    def state(self, k: int):
        while len(self.states) <= k:
            write = self.writes[len(self.states) - 1]
            rows = list(self.states[-1])
            for index, (values, p) in enumerate(rows):
                if tuple(values[:3]) == write["key"]:
                    values = list(values)
                    if "set" in write:
                        values[7] = write["set"]["l_shipdate"]
                    if "p" in write:
                        p = write["p"]
                    rows[index] = (values, p)
            self.states.append(rows)
        return self.states[k]

    def answer(self, statement: int, k: int) -> dict:
        key = (statement, k)
        if key not in self._answers:
            cutoff = CUTOFFS[statement]
            groups = defaultdict(list)
            for values, p in self.state(k):
                if values[7] <= cutoff:
                    groups[(values[5], values[6])].append(p)
            self._answers[key] = {g: oracles.presence(ps) for g, ps in groups.items()}
        return self._answers[key]


def read_matches(answer: dict, want: dict) -> bool:
    return set(answer) == set(want) and all(
        common.close(answer[key], want[key]) for key in answer
    )


def check_history(lineitems, records) -> list[list[str]]:
    """Problems per operation, checked against the possible states.

    ``records`` holds every operation of both connections.  Writes are
    ordered by the generation the server reported (one writer sends
    them one at a time, so this is also the order they were sent in);
    a read may reflect
    any prefix of that order between ``k_lo`` (writes acknowledged
    before it was sent) and ``k_hi`` (writes sent before its reply).
    """
    writes = sorted(
        (r for r in records if r["kind"] == "write" and r["error"] is None),
        key=lambda r: r["generation"],
    )
    oracle = StateOracle(lineitems, [w["write"] for w in writes])
    problems = []
    for record in records:
        if record["error"] is not None:
            problems.append([record["error"]])
            continue
        if record["kind"] == "write":
            rows = record["rows"]
            problems.append([] if rows == 1 else [f"write matched {rows} rows, not 1"])
            continue
        k_lo = max(
            (i + 1 for i, w in enumerate(writes) if w["reply"] < record["sent"]), default=0
        )
        k_hi = max(
            (i + 1 for i, w in enumerate(writes) if w["sent"] < record["reply"]), default=0
        )
        statement = record["statement"]
        if any(
            read_matches(record["answer"], oracle.answer(statement, k))
            for k in range(k_lo, k_hi + 1)
        ):
            problems.append([])
        else:
            problems.append([
                f"read of statement {statement} matches no state between "
                f"{k_lo} and {k_hi} writes: {record['answer']!r}"
            ])
    generations = [w["generation"] for w in writes]
    if len(set(generations)) != len(generations):
        problems.append(["two writes reported the same db_generation"])
    return problems


# -- the server process ---------------------------------------------------


def serve(trace: bool, counting: bool) -> None:
    """Run the query server until ``stop`` arrives on stdin; then report."""
    common.use_source_tree()
    from repro.server.app import QueryServer

    db = common.tpch_database(SCALE_FACTOR)
    server = QueryServer(db, port=0, tcp_port=0)
    tracer = None
    if trace or counting:
        from perfbench.spans import Tracer, install_engine_layers, install_server_layers

        tracer = Tracer(counting=counting)
        install_engine_layers(tracer)
        install_server_layers(tracer)

    async def main():
        await server.start()
        print(json.dumps({"port": server.http_address[1]}), flush=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, sys.stdin.readline)
        stats = server.stats()
        await server.stop()
        return stats

    stats = asyncio.run(main())
    report = {"peak_rss_mb": common.peak_rss_mb(), "stats": stats}
    if tracer is not None:
        tracer.restore()
        report["busy"] = tracer.busy_seconds()
        report["counts"] = tracer.count_metrics()
    print(json.dumps(report), flush=True)


class ServerProcess:
    """The server child process: start, address, stop-and-report."""

    def __init__(self, trace: bool = False, counting: bool = False):
        command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--serve"]
        if trace:
            command.append("--trace")
        if counting:
            command.append("--count")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("query server process exited before listening")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        """Ask the server to drain and exit; return its final report."""
        self.process.stdin.write("stop\n")
        self.process.stdin.flush()
        report = json.loads(self.process.stdout.readline())
        self.close()
        return report

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()


# -- the load process -----------------------------------------------------


class Load:
    """The load process's HTTP connections: a reader and a writer.

    With ``connections=1`` one connection does both, serially.
    """

    def __init__(self, port: int, seed: int, targets, connections: int = 2):
        from repro.server.client import ServerClient

        self.clients = [
            ServerClient(port=port, tenant=f"load-{i}") for i in range(connections)
        ]
        self.reader, self.writer = self.clients[0], self.clients[-1]
        self.writes = WriteStream(seed, targets)
        self.reads = 0

    async def read(self) -> dict:
        """The next statement of the set, run and recorded."""
        statement = self.reads % len(STATEMENTS)
        self.reads += 1
        record = {"kind": "read", "statement": statement, "error": None}
        record["sent"] = time.perf_counter()
        try:
            result = await self.reader.query(STATEMENTS[statement])
            record["answer"] = {
                tuple(row.values[:2]): float(row.probability) for row in result.rows
            }
            record["statement_hit"] = result.statement_cache_hit
        except Exception as exc:  # counted as a failed operation
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["reply"] = time.perf_counter()
        return record

    async def write(self) -> dict:
        """The next write of the stream, run and recorded."""
        write = self.writes.next()
        record = {"kind": "write", "write": write, "error": None}
        record["sent"] = time.perf_counter()
        try:
            response = await self.writer.mutate(
                "lineitem", "update", where=write["where"],
                set_values=write.get("set"), p=write.get("p"),
            )
            record["rows"] = response["mutation"]["rows"]
            record["generation"] = response["mutation"]["db_generation"]
        except Exception as exc:  # counted as a failed operation
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["reply"] = time.perf_counter()
        return record

    async def run(self, deadline: float, records: list) -> None:
        """Reader and writer until the first read that ends past ``deadline``.

        The writer waits for a token, which the reader leaves after every
        ``CYCLE - 1`` reads, and sends one write while the reader goes on.
        """
        tokens: asyncio.Queue = asyncio.Queue()

        async def reader():
            while True:
                record = await self.read()
                records.append(record)
                if self.reads % (CYCLE - 1) == 0:
                    tokens.put_nowait(True)
                if record["reply"] >= deadline:
                    tokens.put_nowait(False)
                    return

        async def writer():
            while await tokens.get():
                records.append(await self.write())

        await asyncio.gather(reader(), writer())

    async def cycles(self, count: int) -> None:
        """``count`` cycles of CYCLE - 1 reads and one write, serially."""
        for _ in range(count):
            for _ in range(CYCLE - 1):
                record = await self.read()
                if record["error"] is not None:
                    raise RuntimeError(record["error"])
            record = await self.write()
            if record["error"] is not None:
                raise RuntimeError(record["error"])

    async def warm_up(self) -> None:
        """Each statement once, so the timed phase starts with warm caches."""
        for sql in STATEMENTS:
            await self.reader.query(sql)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()


def _targets():
    db = common.tpch_database(SCALE_FACTOR)
    lineitems = common.plain_tables(db)["lineitem"]
    return lineitems, write_targets(lineitems)


def setup_probe(seed: int) -> None:
    """Start the server, warm it up, say ``ready``, shut down.

    The warm-up issues no write, so the load needs no write targets: the
    oracle's copy of the data, which a timed run generates in the load
    process, is the benchmark's work, not the server's set-up.
    """
    server = ServerProcess()
    try:
        load = Load(server.port, seed, [])
        asyncio.run(_warm(load))
        print("ready", flush=True)
        server.stop()
    finally:
        server.close()


async def _warm(load: Load) -> None:
    try:
        await load.warm_up()
    finally:
        await load.close()


async def _timed(load: Load, seconds: float) -> tuple[list, float, dict, dict]:
    try:
        await load.warm_up()
        before = await load.clients[0].stats()
        records: list = []
        start = time.perf_counter()
        await load.run(start + seconds, records)
        elapsed = max(r["reply"] for r in records) - start
        after = await load.clients[0].stats()
        return records, elapsed, before, after
    finally:
        await load.close()


def run(seed: int, seconds: float, trace: bool) -> tuple:
    """One timed run; returns the tally, metrics and traced figures."""
    lineitems, targets = _targets()
    server = ServerProcess(trace=trace)
    tracer = None
    try:
        load = Load(server.port, seed, targets)
        if trace:
            import repro.server.client as client_module
            from perfbench.spans import Tracer

            tracer = Tracer()
            tracer.wrap(client_module, "result_from_json", "server.decode")
        try:
            records, elapsed, before, after = asyncio.run(_timed(load, seconds))
        finally:
            if tracer is not None:
                tracer.restore()
        report = server.stop()
    finally:
        server.close()

    problems = check_history(lineitems, records)
    tally = common.Tally()
    for record_problems, record in zip(problems, records):
        tally.record(record_problems, raised=record["error"] is not None)
    for extra in problems[len(records):]:
        tally.errors.append("; ".join(extra))
        tally.wrong += 1
    completed = [r for r in records if r["error"] is None]
    reads = [r["reply"] - r["sent"] for r in completed if r["kind"] == "read"]
    if not trace:
        return tally, {
            "setup_s": common.metric(common.measure_setup("serve_rw", seed), "s"),
            "ops_per_s": common.metric(len(completed) / elapsed, "1/s"),
            "peak_rss_mb": common.metric(report["peak_rss_mb"], "MiB"),
            "read_p50_ms": common.metric(common.p50_ms(reads), "ms"),
        }, None

    from perfbench.spans import layer_metrics

    operations = max(1, len(completed))
    busy = dict(report["busy"])
    busy["server.decode"] = tracer.busy_seconds().get("server.decode", 0.0)
    values = layer_metrics(busy, operations)
    round_trips = sum(r["reply"] - r["sent"] for r in completed)
    server_side = busy.get("server.execute", 0.0) + busy.get("server.mutate", 0.0)
    values["server.protocol_ms"] = (round_trips - server_side) * 1000.0 / operations
    hits = [r["statement_hit"] for r in completed if r["kind"] == "read"]
    values["server.statement_hit_ratio"] = sum(hits) / len(hits) if hits else 0.0
    values["server.write_p50_ms"] = common.p50_ms(
        [r["reply"] - r["sent"] for r in completed if r["kind"] == "write"]
    )
    cache_before, cache_after = before["distribution_cache"], after["distribution_cache"]
    values["engine.cache_hit_ratio"] = common.hit_ratio(
        cache_after["hits"] - cache_before["hits"],
        cache_after["misses"] - cache_before["misses"],
    )
    values.update(count_pass(seed))
    traced = {"read_p50_ms": common.p50_ms(reads), "ops_per_s": len(completed) / elapsed}
    return tally, common.per_layer_metrics(values), traced


def count_pass(seed: int) -> dict:
    """Work counts of the warm-up plus COUNT_CYCLES serial cycles.

    A fresh server and one connection, so the interleaving — and with it
    every cache hit, miss and invalidation — depends on the seed alone.
    """
    _, targets = _targets()
    server = ServerProcess(counting=True)
    try:
        load = Load(server.port, seed, targets, connections=1)

        async def serial():
            try:
                await load.warm_up()
                await load.cycles(COUNT_CYCLES)
            finally:
                await load.close()

        asyncio.run(serial())
        report = server.stop()
    finally:
        server.close()
    counts = dict(report["counts"])
    cache = report["stats"]["distribution_cache"]
    counts["engine.cache_hits"] = cache["hits"]
    counts["engine.cache_misses"] = cache["misses"]
    counts["engine.invalidations"] = cache["invalidations"]
    return counts


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="perfbench query-server process")
    parser.add_argument("--serve", action="store_true", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--count", action="store_true")
    args = parser.parse_args()
    serve(args.trace, args.count)
