#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite —
# once plain and once under ASan+UBSan (INFS_SANITIZE=ON). The lint
# suite adds clang-tidy (when installed) and the infs-verify static
# analyzer over every seed workload.
#
# Usage: scripts/check.sh [--plain-only|--sanitize-only|--lint-only|--lint]
#                         [--tier1|--tsan] [--threads N]
#                         [--backend fabric|functional]
#
# --tier1 builds once and runs only the ctest tier1 label — the fast
# per-PR suite (the functional backend plus the differential subset);
# the full bit-accurate sweeps stay on the default full run.
#
# --tsan builds the host-threading tests under ThreadSanitizer
# (INFS_TSAN=ON, build-tsan/) and runs them alone: the one-queue host pool,
# the executor at 1 vs N host threads (nested candidate batches included),
# and concurrent lowering through the JIT memo.
#
# --backend selects the execution backend of a one-scenario bench smoke.
# Unknown values exit 2 before anything builds.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
mode=all
lint=no
backend=""

while [[ $# -gt 0 ]]; do
    case $1 in
        --plain-only|--sanitize-only) mode=$1 ;;
        --tier1) mode=tier1 ;;
        --tsan) mode=tsan ;;
        --lint) lint=yes ;;
        --lint-only) lint=yes; mode=lint-only ;;
        --threads)
            [[ $# -ge 2 ]] || { echo "--threads needs a value" >&2; exit 2; }
            jobs=$2
            shift ;;
        --backend)
            [[ $# -ge 2 ]] || { echo "--backend needs a value" >&2; exit 2; }
            case $2 in
                fabric|functional) backend=$2 ;;
                *) echo "check.sh: unknown backend '$2'" >&2; exit 2 ;;
            esac
            shift ;;
        *) echo "usage: $0 [--plain-only|--sanitize-only|--lint-only|--lint]" \
                "[--tier1|--tsan] [--threads N] [--backend NAME]" >&2
           exit 2 ;;
    esac
    shift
done

# One-scenario bench smoke with the selected backend: proves
# the CLI path end to end without the full bench sweep.
bench_smoke() {
    local dir=$1
    local args=(--quick --repeat 1 --json "$dir/bench_smoke.json" conv2d)
    [[ -n $backend ]] && args+=(--backend "$backend")
    cmake --build "$dir" -j "$jobs" --target infs-bench
    "$dir/tools/infs-bench" "${args[@]}"
}

run_suite() {
    local dir=$1
    shift
    cmake -B "$dir" -S . "$@"
    cmake --build "$dir" -j "$jobs"
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

run_lint() {
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    cmake --build build -j "$jobs" --target infs-verify
    if command -v clang-tidy > /dev/null 2>&1; then
        echo "-- clang-tidy over src/"
        # xargs -P forks parallel clang-tidy batches; a failing batch
        # surfaces as a non-zero xargs status that `set -e` inside a
        # pipeline used to swallow. Capture and propagate it explicitly.
        local tidy_status=0
        find src -name '*.cc' -print0 |
            xargs -0 -P "$jobs" -n 4 clang-tidy -p build --quiet ||
            tidy_status=$?
        if [[ $tidy_status -ne 0 ]]; then
            echo "check.sh: clang-tidy failed (status $tidy_status)" >&2
            return "$tidy_status"
        fi
    else
        echo "-- clang-tidy not installed; skipping"
    fi
    echo "-- infs-verify over all seed workloads (level=full)"
    build/tools/infs-verify --all --level=full
}

if [[ $mode == tier1 ]]; then
    echo "== tier-1 build =="
    cmake -B build -S .
    cmake --build build -j "$jobs"
    ctest --test-dir build -L tier1 --output-on-failure -j "$jobs"
    if [[ -n $backend ]]; then
        echo "== bench smoke (backend=$backend) =="
        bench_smoke build
    fi
    echo "check.sh: tier-1 suite passed"
    exit 0
fi

if [[ $mode == tsan ]]; then
    echo "== ThreadSanitizer build (host-threading tests) =="
    cmake -B build-tsan -S . -DINFS_TSAN=ON
    cmake --build build-tsan -j "$jobs" --target test_sim test_jit \
        test_executor
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
        -R 'ThreadPool|HostThreads|JitThreads'
    echo "check.sh: TSan suite passed"
    exit 0
fi

if [[ $lint == yes ]]; then
    echo "== lint =="
    run_lint
    [[ $mode == lint-only ]] && { echo "check.sh: lint passed"; exit 0; }
    mode=all
fi

if [[ $mode != --sanitize-only ]]; then
    echo "== plain build =="
    run_suite build
    if [[ -n $backend ]]; then
        echo "== bench smoke (backend=$backend) =="
        bench_smoke build
    fi
fi

if [[ $mode != --plain-only ]]; then
    echo "== sanitized build (ASan+UBSan) =="
    run_suite build-asan -DINFS_SANITIZE=ON
fi

echo "check.sh: all suites passed"
