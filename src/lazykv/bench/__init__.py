"""Benchmark harness: workloads, runner, serial-equivalence oracle, CLI."""

from .oracle import (CommittedTxn, GuardedWriteStep, ReadStep, ScheduleLog,
                     WriteStep, check_serial_equivalence, random_program,
                     random_schedule, run_schedule, slot_read)
from .runner import (PROTOCOLS, WORKLOADS, ProtocolApi, RunConfig, RunReport,
                     build_api, make_engine, run)
from .workloads import ClientAbort, make_workload

__all__ = [
    "PROTOCOLS", "WORKLOADS", "ProtocolApi", "RunConfig", "RunReport",
    "ClientAbort", "CommittedTxn", "GuardedWriteStep", "ReadStep",
    "ScheduleLog", "WriteStep", "build_api", "check_serial_equivalence",
    "make_engine", "make_workload", "random_program", "random_schedule",
    "run", "run_schedule", "slot_read",
]
