#!/usr/bin/env python3
"""Code-shape report for the engine entry points the benchmark workloads run.

Usage: tools/hot_symbols.py BINARY

For each of the four perfbench workloads (hash-short, skip-full, kv-zipf,
kv-snapshot) it names the TM engine instantiation the workload runs and
prints, from `nm -C -S` of BINARY:

  * the size of every Tx::Read / Tx::Commit / Atomically<...> instantiation of
    that engine (Atomically rows are labelled by the calling function; GCC's
    .isra/.constprop clones count as the function), with the size of a
    split-off `.cold` part in parentheses, or "inlined" when the
    engine is in the binary but the entry point has no out-of-line copy;
  * the size of each operation of the workload's data structure;
  * the `call` targets inside each Tx::Read (from `objdump -d`), with counts.

An engine with no symbol at all in BINARY is reported as "absent". A perf
comparison that moves with inlining (a Tx::Read folded into its Atomically,
say) shows up as a change in these rows between two builds. Stdlib only;
needs binutils' nm and objdump. Exits 1 if none of the four engines is in
BINARY, or if a tool fails.
"""

import collections
import re
import subprocess
import sys

# (workload, engine class, structure class) as `nm -C` prints them.
WORKLOADS = [
    ("hash-short",
     "spectm::ValShortTm<spectm::NonReuseValidation, (spectm::ValStrategy)0>",
     "spectm::SpecHashSet<spectm::internal::ValFamilyT<"
     "spectm::NonReuseValidation, (spectm::ValStrategy)0> >"),
    ("skip-full",
     "spectm::FullTm<spectm::OrecLayout<spectm::OrecGTag>, "
     "spectm::GlobalClockGv4<spectm::OrecGTag>, spectm::OrecGTag, "
     "(spectm::ValStrategy)0>",
     "spectm::TmSkipList<spectm::internal::OrecBasedFamily<spectm::OrecGTag, "
     "spectm::OrecLayout, spectm::GlobalClockGv4, (spectm::ValStrategy)0> >"),
    ("kv-zipf",
     "spectm::ValFullTm<spectm::GlobalCounterBloomValidation, "
     "(spectm::ValStrategy)3>",
     "spectm::svc::KvStore<spectm::internal::ValFamilyT<"
     "spectm::GlobalCounterBloomValidation, (spectm::ValStrategy)3> >"),
    ("kv-snapshot",
     "spectm::ValFullTm<spectm::SnapshotValidation, (spectm::ValStrategy)3>",
     "spectm::svc::KvStore<spectm::internal::ValFamilyT<"
     "spectm::SnapshotValidation, (spectm::ValStrategy)3> >"),
]

ENTRY_POINTS = ["Tx::Read", "Tx::Commit", "Atomically"]
CLONE = re.compile(r" \[clone ([^\]]*)\]")
CALL = re.compile(r"\bcall[a-z]*\s+(?:[0-9a-f]+\s+<(.*)>|(\*.*))$")


def run(cmd):
    try:
        return subprocess.run(cmd, check=True, capture_output=True,
                              text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("hot_symbols: %s failed: %s" % (cmd[0], e))


def read_symbols(binary):
    """Returns [(address, size, name)] of the defined text symbols."""
    syms = []
    for line in run(["nm", "-C", "-S", "--defined-only", binary]).splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in "tTwW":
            syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
    return syms


def strip_templates(name):
    """Collapses every template argument list to <…> (for short labels)."""
    out, depth = [], 0
    for ch in name:
        if ch == "<":
            if depth == 0:
                out.append("<…>")
            depth += 1
        elif ch == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def caller_of(name):
    """The function whose lambda an Atomically<...> instantiation runs."""
    end = name.find("::{lambda")
    if end < 0:
        return "?"
    depth, i = 0, end - 1
    while i >= 0 and name[i] in " const":  # trailing cv-qualifier
        i -= 1
    while i >= 0:  # back over the parameter list
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    m = re.search(r"(\w+)$", name[:i])
    return m.group(1) if m else "?"


def entry_point(engine, name):
    """The row label of `name` if it is an entry point of `engine`, or None:
    "Tx::Read", "ShortTx::ReadRo", "Atomically<BatchScan lambda>", ..."""
    m = re.match(re.escape(engine) + r"::((?:Short)?Tx::(?:Read|Commit)\w*)\(",
                 name)
    if m:
        return m.group(1)
    if re.match(r"(?:bool )?" + re.escape(engine) + "::Atomically<", name):
        return "Atomically<%s lambda>" % caller_of(name)
    return None


def call_targets(binary, addr, size):
    dump = run(["objdump", "-d", "-C", "--no-show-raw-insn",
                "--start-address=0x%x" % addr,
                "--stop-address=0x%x" % (addr + size), binary])
    targets = collections.Counter()
    for line in dump.splitlines():
        m = CALL.search(line.strip())
        if m:
            target = m.group(1) or "indirect " + m.group(2)
            targets[strip_templates(target)] += 1
    return targets


def fmt_size(parts):
    """Hot size, then the split-off cold part: "0x1f0 (+0x75 cold)"."""
    hot = sum(s for k, s in parts.items() if "cold" not in k)
    cold = sum(s for k, s in parts.items() if "cold" in k)
    return "0x%x" % hot + (" (+0x%x cold)" % cold if cold else "")


def report(binary):
    syms = read_symbols(binary)
    found_any = False
    for workload, engine, structure in WORKLOADS:
        present = any(engine in n for _, _, n in syms)
        print("%s: %s" % (workload, strip_templates(engine)))
        if not present:
            print("  absent")
            continue
        found_any = True
        # label -> {clone suffix: size}; Tx::Read rows also keep their address.
        rows = collections.OrderedDict()
        reads = []
        for addr, size, name in syms:
            base = CLONE.sub("", name)
            clone = "".join(CLONE.findall(name))
            label = entry_point(engine, base)
            if label is None:
                continue
            rows.setdefault(label, {})
            rows[label][clone] = rows[label].get(clone, 0) + size
            if "Tx::Read" in label and "cold" not in clone:
                reads.append((label, addr, size))
        for ep in ENTRY_POINTS:
            if not any(ep in label for label in rows):
                print("  %-36s inlined" % ep)
        for label, parts in rows.items():
            print("  %-36s %s" % (label, fmt_size(parts)))
        ops = collections.OrderedDict()
        prefix = structure + "::"
        for _, size, name in syms:
            if name.startswith(prefix):
                op = re.match(r"(\w+)", name[len(prefix):])
                if op and op.group(1)[0].isupper():
                    clone = "".join(CLONE.findall(name))
                    parts = ops.setdefault(op.group(1), {})
                    parts[clone] = parts.get(clone, 0) + size
        for op, parts in ops.items():
            print("  %-36s %s" % (strip_templates(structure) + "::" + op,
                                  fmt_size(parts)))
        for label, addr, size in reads:
            targets = call_targets(binary, addr, size)
            print("  calls in %s:%s" % (label, "" if targets else " none"))
            for target, count in sorted(targets.items()):
                print("    %2d x %s" % (count, target))
    return found_any


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    if not report(argv[1]):
        sys.exit("hot_symbols: none of the workload engines is in " + argv[1])


if __name__ == "__main__":
    main(sys.argv)
