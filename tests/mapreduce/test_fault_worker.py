"""The fault-injecting test worker itself (``fault_worker.py``)."""

import pytest

from fault_worker import FaultSpec, FaultyWorkerServer
from repro.mapreduce import wire


class TestFaultWorker:
    def test_fault_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(mode="melt", after_tasks=1)
        with pytest.raises(ValueError):
            FaultSpec(mode="kill", after_tasks=0)

    def test_concurrent_connections_share_the_task_counter(self):
        """Fault arming counts tasks across all connections — that is
        what lets one flag fire mid-phase whichever connection lands the
        N-th task."""
        server = FaultyWorkerServer(fault=FaultSpec("drop", 3)).start()
        socks = [wire.connect(server.address, timeout=2.0) for _ in range(2)]
        results = []
        try:
            slim, _blobs = wire.split_task_fn(lambda i: i)
            for token, sock in enumerate(socks, start=1):
                wire.send_frame(sock, ("register", token, slim, []))
                assert wire.recv_frame(sock)[0] == "registered"
            for attempt in range(4):
                for token, sock in enumerate(socks, start=1):
                    try:
                        wire.send_frame(sock, ("task", token, attempt))
                        results.append(wire.recv_frame(sock))
                    except (wire.WireError, OSError):
                        results.append("lost")
            assert "lost" in results  # the drop fired within the batch
        finally:
            for sock in socks:
                sock.close()
            server.stop()
