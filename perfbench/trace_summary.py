#!/usr/bin/env python3
"""Summarises a perfbench span file into per-layer self times.

Usage: python3 perfbench/trace_summary.py SPANS.tsv [--untraced-p50-us X]

The span file has one span per line: id, layer, start_ns, end_ns. Spans of
one request share an id: a client span and the handler span the server ran
for it (the id travels in the X-Bench-Id header). A layer's self time is its
span's duration minus the part covered by its direct child spans.

Prints a table of every layer and returns the per-layer metrics:
  server.handle_ns          p50 of the handler spans
  server.wire_residual_us   client p50 minus handler p50: parse, serialize,
                            syscalls, loopback and the client itself
  ingest.handle_ms          p50 of the ingest handler spans
By construction server.handle_ns + server.wire_residual_us equals the traced
client p50; against the untraced latency p50 of the same run the two differ
by the tracing overhead, which should stay within ACCOUNTED_LIMIT_PCT.
"""
import argparse
import math
import sys
from collections import defaultdict

ACCOUNTED_LIMIT_PCT = 15.0


def percentile(values, p):
    """Nearest-rank percentile, as perfbench.cc computes it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered)) - 1
    rank = min(len(ordered) - 1, max(0, rank))
    return float(ordered[rank])


def read_spans(path):
    by_id = defaultdict(list)
    with open(path, encoding="utf-8") as spans:
        next(spans)  # header
        for line in spans:
            span_id, layer, start, end = line.rstrip("\n").split("\t")
            by_id[int(span_id)].append((int(start), int(end), layer))
    return by_id


def self_times(by_id):
    """Maps layer -> (durations, self times), both in ns."""
    layers = defaultdict(lambda: ([], []))
    for span_id, spans in by_id.items():
        if span_id == 0:
            # A request whose client sent no id while the server traced it:
            # the handler span cannot be joined to its client.
            continue
        for start, end, layer in spans:
            children = [
                (cs, ce) for cs, ce, _ in spans
                if start <= cs and ce <= end and (cs, ce) != (start, end)
            ]
            direct = [
                (cs, ce) for cs, ce in children
                if not any(os_ <= cs and ce <= oe and (os_, oe) != (cs, ce)
                           for os_, oe in children)
            ]
            durations, selfs = layers[layer]
            durations.append(end - start)
            selfs.append(end - start - sum(ce - cs for cs, ce in direct))
    return layers


def summarise(path, untraced_p50_us=None, out=sys.stdout):
    layers = self_times(read_spans(path))
    print(f"{'layer':24} {'spans':>8} {'p50 ns':>12} {'self p50 ns':>12}",
          file=out)
    for layer in sorted(layers):
        durations, selfs = layers[layer]
        print(f"{layer:24} {len(durations):8d} "
              f"{percentile(durations, 50):12.0f} "
              f"{percentile(selfs, 50):12.0f}", file=out)

    def p50(layer):
        return percentile(layers[layer][0], 50) if layer in layers else 0.0

    handle_ns = p50("server.handle")
    client_ns = p50("client")
    residual_us = (client_ns - handle_ns) / 1e3 if client_ns else 0.0
    metrics = {
        "server.handle_ns": (handle_ns, "ns"),
        "server.wire_residual_us": (residual_us, "us"),
        "ingest.handle_ms": (p50("ingest.handle") / 1e6, "ms"),
    }
    if client_ns and untraced_p50_us:
        client_us = client_ns / 1e3
        unaccounted = 100.0 * (untraced_p50_us - client_us) / untraced_p50_us
        verdict = ("within" if abs(unaccounted) <= ACCOUNTED_LIMIT_PCT
                   else "OUTSIDE")
        print(f"accounting: handle {handle_ns / 1e3:.2f} us + wire residual "
              f"{residual_us:.2f} us = traced client p50 {client_ns / 1e3:.2f}"
              f" us; untraced latency p50 {untraced_p50_us:.2f} us; "
              f"unaccounted {unaccounted:+.1f}% ({verdict} the stated "
              f"+-{ACCOUNTED_LIMIT_PCT:.0f}%)", file=out)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans")
    parser.add_argument("--untraced-p50-us", type=float, default=None)
    args = parser.parse_args()
    for name, (value, unit) in summarise(args.spans,
                                         args.untraced_p50_us).items():
        print(f"{name} {value:.6f} {unit}")


if __name__ == "__main__":
    main()
