"""Run one `maeda` CLI command in-process with a span around every call
into each layer's public functions, and write the spans out at the end.

    python3 trace_child.py SPANS_JSON LAUNCH_EPOCH <maeda arguments...>

LAUNCH_EPOCH is the wall-clock time at which the parent started this
process, so that interpreter start and imports show as the span
``proc.start``.  Each span is [name, start, end, parent index, value];
``value`` records the result of ``is_squarefree`` and is null elsewhere.
The functions are wrapped where their callers look them up, so the program
itself is unchanged.
"""

import time

_EPOCH0, _PERF0 = time.time(), time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

# (module, attribute looked up by the caller, layer span name)
WRAPPED = (
    ("maeda.qseries", "spanning_set", "qseries.spanning_set"),
    ("maeda.hecke", "miller_basis", "qseries.miller_basis"),
    ("maeda.certify", "hecke_matrix_T2", "hecke.matrix"),
    ("maeda.certify", "reduce_matrix", "ffpoly.reduce"),
    ("maeda.certify", "charpoly_mod_p", "ffpoly.charpoly"),
    ("maeda.certify", "is_squarefree", "ffpoly.squarefree"),
    ("maeda.ffpoly", "is_squarefree", "ffpoly.squarefree"),
    ("maeda.certify", "factorization_pattern", "ffpoly.pattern"),
    ("maeda.certify", "sieve_primes", "primes.sieve"),
    ("maeda.certify", "classify", "certify.classify"),
    ("maeda.cli", "verify_weight", "certify.search"),
    ("maeda.cli", "check_certificate", "certify.recheck"),
    ("maeda.cli", "write_certificate", "cli.cert_write"),
    ("maeda.cli", "read_certificate", "cli.cert_read"),
    ("maeda.cli", "cmd_verify", "cli.verify"),
    ("maeda.cli", "cmd_check", "cli.check"),
)
RECORD_VALUE = {"ffpoly.squarefree"}


class Tracer:
    """Spans kept in memory, parented by the call stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str, start: float) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, None, parent, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        record = name in RECORD_VALUE

        def traced(*args, **kwargs):
            index = self.open(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if record:
                self.spans[index][4] = bool(result)
            return result

        return traced


def main() -> int:
    out_path, launch_epoch, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    start = tracer.open("proc.start", _PERF0 - (_EPOCH0 - launch_epoch))
    import importlib

    modules = {}
    for module_name, attr, span_name in WRAPPED:
        module = modules.setdefault(module_name, importlib.import_module(module_name))
        setattr(module, attr, tracer.wrap(getattr(module, attr), span_name))
    tracer.close(start)

    main_span = tracer.open("cli.main", time.perf_counter())
    try:
        code = modules["maeda.cli"].main(argv)
    finally:
        tracer.close(main_span)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
