#!/usr/bin/env python3
"""Controlled level-2 corruption for strict-conditioning drills.

Damages one frame of a packed level-2 run stream the way real failures do
— a crash-torn write or a bit flip that breaks the frame's CRC — so CI,
tests and operators can check that ``repro condition`` refuses a store
that is corrupt in a known, assertable way, naming the frame's line and
reason.  Run it on a *copy* of the store: the damage is deliberate and
permanent.

Usage::

    python tools/corrupt_l2.py STORE --run RUN --node NODE \
        [--stream events.jsonl] [--index -1] \
        (--truncate-bytes K | --flip-byte | --bad-json)

The target is the ``--index``-th frame (default: the last) that ``--node``
wrote into ``runs/RUN/STREAM``.  ``--truncate-bytes K`` ends the file K
bytes short of that frame's end (a torn write: the frame is cut and
whatever followed it is gone); ``--flip-byte`` changes one character
inside the frame's JSON part while leaving its CRC suffix alone
(simulating silent media corruption -> crc_mismatch); ``--bad-json`` cuts
the last character off the frame's JSON part and writes the CRC of what
is left (a writer that framed broken JSON -> bad_json).
"""

from __future__ import annotations

import argparse
import sys
import zlib
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store", type=Path, help="level-2 store root (a copy!)")
    parser.add_argument("--run", type=int, required=True, help="run id")
    parser.add_argument("--stream", default="events.jsonl",
                        choices=("events.jsonl", "packets.jsonl", "traces.jsonl"))
    parser.add_argument("--node", required=True, help="node id that wrote the frame")
    parser.add_argument("--index", type=int, default=-1,
                        help="which of the node's frames (default: the last)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--truncate-bytes", type=int, metavar="K",
                      help="end the file K bytes short of the frame's end")
    mode.add_argument("--flip-byte", action="store_true",
                      help="corrupt one character of the frame's JSON part "
                           "(keeps the CRC suffix -> crc_mismatch)")
    mode.add_argument("--bad-json", action="store_true",
                      help="cut the frame's JSON part short and recompute "
                           "its CRC (-> bad_json)")
    return parser


def locate(lines, node: str, index: int) -> int:
    """Position in *lines* of the node's *index*-th frame."""
    prefix = node.encode("utf-8") + b"\t"
    own = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    try:
        return own[index]
    except IndexError:
        raise SystemExit(f"node {node} has {len(own)} frame(s); no index {index}")


def truncate(path: Path, lines, target: int, nbytes: int) -> None:
    frame = lines[target].rstrip(b"\n")
    if not 0 < nbytes < len(frame):
        raise SystemExit(f"--truncate-bytes must be in (0, {len(frame)})")
    end = sum(len(line) for line in lines[:target]) + len(frame) - nbytes
    with open(path, "r+b") as fh:
        fh.truncate(end)
    print(f"tore frame {target + 1} of {path} {nbytes} byte(s) short "
          f"({sum(map(len, lines))} -> {end} bytes)")


def flip_byte(path: Path, lines, target: int) -> None:
    node, body, suffix = lines[target].split(b"\t")
    if not body:
        raise SystemExit(f"frame {target + 1} of {path} is a marker; nothing to flip")
    # Flip a character in the middle of the JSON part; swapping a digit
    # keeps the text valid JSON so only the CRC check can catch it.
    text = body.decode("utf-8")
    pos = len(text) // 2
    for offset in range(len(text)):
        i = (pos + offset) % len(text)
        if text[i].isdigit():
            flipped = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
            break
    else:
        i = pos
        flipped = text[:i] + ("x" if text[i] != "x" else "y") + text[i + 1:]
    lines[target] = b"\t".join((node, flipped.encode("utf-8"), suffix))
    path.write_bytes(b"".join(lines))
    print(f"flipped one byte in frame {target + 1} of {path}")


def bad_json(path: Path, lines, target: int) -> None:
    frame = lines[target].rstrip(b"\n")
    node, body, _suffix = frame.split(b"\t")
    if len(body) < 2:
        raise SystemExit(f"frame {target + 1} of {path} has no JSON part to cut")
    # Cutting the closing bracket leaves text no JSON reader accepts; the
    # fresh CRC makes the frame itself intact.
    head = node + b"\t" + body[:-1]
    lines[target] = head + b"\t%08x" % zlib.crc32(head) + lines[target][len(frame):]
    path.write_bytes(b"".join(lines))
    print(f"cut the JSON part of frame {target + 1} of {path} under a fresh CRC")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    path = args.store / "runs" / str(args.run) / args.stream
    if not path.exists():
        raise SystemExit(f"no such stream: {path}")
    lines = path.read_bytes().splitlines(keepends=True)
    target = locate(lines, args.node, args.index)
    if args.truncate_bytes is not None:
        truncate(path, lines, target, args.truncate_bytes)
    elif args.bad_json:
        bad_json(path, lines, target)
    else:
        flip_byte(path, lines, target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
