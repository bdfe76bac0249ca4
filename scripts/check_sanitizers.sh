#!/usr/bin/env bash
# Sanitizer gate for the fault-injection conformance suites.
#
# Builds the tree under ASan+UBSan (RMP_SANITIZE=address enables both, see the
# top-level CMakeLists.txt) and runs the `faults_smoke` and `repair_smoke`
# ctest labels — the fault-injection, crash-recovery, wire-fuzz, wire codec,
# checksum, and self-healing (health/repair) suites — so every injected
# interleaving, and the CRC-32C kernel's unaligned loads and tail handling, is
# also exercised for memory and UB errors, not just for byte-identical
# recovery. This complements the existing RMP_SANITIZE=thread
# configuration that gates the pipelined transport's sender/receiver threads.
#
# Usage:
#   scripts/check_sanitizers.sh [sanitizer ...]
#
# With no arguments runs the default `address` job (ASan+UBSan). Pass
# `thread` as well to run the TSan job over the same label, e.g.:
#   scripts/check_sanitizers.sh address thread
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sanitizers=("${@:-address}")
# The self-healing suites (health monitor heartbeat thread, repair
# coordinator) carry the repair_smoke label; run them under the same
# sanitizers so the background pump thread is raced under TSan too.
# reactor_smoke covers the event-loop transport: the fair-share scheduler's
# worker handoffs, hostile-frame teardown, and the many-session churn soak
# are exactly the loop-thread/worker races TSan exists to catch.
# compress_smoke covers the codec and the compressed tier: the decompressor's
# bounds checks against truncated/bit-flipped extents and the dedup refcount
# lifecycle are where ASan/UBSan findings would hide behind "corruption"
# status returns.
# tenant_smoke covers the multi-tenant QoS layer: quota admission under
# concurrent multi-tenant churn is a lock-order/race surface (control vs
# tenant mutex), so it runs under TSan alongside the scheduler suites.
# membership_smoke covers elastic membership (DESIGN.md §16): live
# join/decommission rebalance moves pages while foreground paging runs, and
# the map-frame fail-closed decoding is exactly where ASan/UBSan findings
# would hide behind clean-looking protocol errors.
# obs_smoke covers the observability pipeline (DESIGN.md §17): the span ring
# and event journal are concurrent structures appended from transport worker
# threads while pollers drain them over the wire — TSan territory — and the
# introspection-reply fuzz sweeps plus the live rmptop demo (real TCP, traffic
# thread) are where ASan would catch a payload view escaping its frame.
# vm_smoke covers the VM: the flat page table, the two-entry translation
# cache and the replacement policies' frame-indexed lists, whose index
# arithmetic is where ASan/UBSan would catch an out-of-bounds frame or page.
# faults_smoke also carries the in-process transport's tests, whose
# Disconnect/Reconnect race with a calling thread is TSan's to catch.
# server_smoke covers the memory server's request path (gate, dispatch, the
# shared write prelude, the batch loop) and its shard-parallel store, whose
# striped locks and slab frames are hit from many threads at once.
label="${RMP_SMOKE_LABEL:-faults_smoke|repair_smoke|metrics_smoke|reactor_smoke|compress_smoke|tenant_smoke|membership_smoke|obs_smoke|vm_smoke|server_smoke}"

for sanitizer in "${sanitizers[@]}"; do
  build_dir="${repo_root}/build-${sanitizer}san"
  echo "==> [${sanitizer}] configuring ${build_dir}"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRMP_SANITIZE="${sanitizer}"
  echo "==> [${sanitizer}] building"
  cmake --build "${build_dir}" -j "$(nproc)"
  echo "==> [${sanitizer}] running ctest -L ${label}"
  # halt_on_error makes ASan/UBSan findings fail the test instead of just
  # printing; detect_leaks catches anything the fault paths drop on the floor.
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "${build_dir}" -L "${label}" --output-on-failure -j "$(nproc)"
  echo "==> [${sanitizer}] OK"
done
