#!/bin/sh
# Correctness gate: builds and tests the tree under each hardening config.
#
#   1. default  -Werror with extended warnings (-Wconversion -Wshadow
#               -Wold-style-cast -Wnon-virtual-dtor), full ctest suite —
#               includes revtr_lint (with the layering analyzer), the
#               wire-codec fuzzer, and the revtr_mc model-checker sweep;
#               then a deeper revtr_mc sweep at 60 seeds per shape
#               (40,320 states, a few seconds).
#   release     Release (-O3) build with -Werror, no tests: optimizer-only
#               warnings (GCC 12's -Wrestrict) fail here, not in a user's
#               first Release build.
#   2. asan     AddressSanitizer build, full ctest suite (the revtr_mc
#               state sweep under ASan is the deepest memory check we run).
#   3. ubsan    UndefinedBehaviorSanitizer with -fno-sanitize-recover=all
#               (any UB aborts the test), full ctest suite.
#   4. tsan     ThreadSanitizer over the concurrency suite (thread pool,
#               synchronized Distribution, striped caches, sharded metrics,
#               parallel campaign driver) plus the ServerDaemon e2e suite —
#               the racy paths the parallel batch driver and the measurement
#               daemon actually exercise. REVTR_CHECK_TSAN=0 skips the
#               stage; REVTR_CHECK_TSAN=full runs the whole ctest suite
#               under TSan.
#
# Both gates also run an observability smoke: a small instrumented campaign
# through revtr_cli, whose Prometheus snapshot must parse and contain the
# core metric families (requests, probes, request latency, engine stages) —
# plus a scheduler smoke: a staged campaign with overlapping destinations
# whose revtr_probes_coalesced_total sample must come out positive. The full
# gate adds a serverd smoke: an in-process 1k-request replay through
# revtr_replay (BENCH_serverd.json schema + zero deadline misses +
# revtr_server_requests_total > 0), then an external revtr_serverd serving
# one revtr_cli client over its AF_UNIX socket and draining cleanly on
# SIGTERM — and an agent smoke: the same client requests through a
# controller (--remote-probing) plus two revtr_agentd processes must print
# byte-identical output to the monolith, with both sides draining cleanly
# on SIGTERM (DESIGN.md §15).
#
# --quick: inner-loop mode — default preset only, and only the fast
# correctness tiers: revtr_lint (lint + layering + self-test) and the unit
# tests, skipping the fuzzer and the model-checker sweep. Use before a
# commit when the full multi-preset gate is too slow; CI runs the full one.
#
# The full gate also runs two clang-only stages, each skipped with a notice
# when the binary is missing (the default container ships gcc only):
#   * tsa         clang -Wthread-safety -Wthread-safety-beta -Werror over the
#                 REVTR_* capability annotations (src/util/annotate.h); any
#                 lock-discipline violation is a hard build error. Without
#                 clang, the revtr_lint lock-discipline pass (mutex-capability,
#                 guarded-member, raii-guard, lock-order) is the enforcement.
#   * clang-tidy  config in .clang-tidy (includes the concurrency-* checks).
#
# Plus a perfbench smoke: perfbench/run.py builds the benchmark harness and
# runs a 2 s campaign workload, which must report correct with 0 failed.
#
# Plus a bench-artifact smoke: scaled-down runs of bench_parallel_campaign,
# bench_throughput, and bench_micro_net must each emit their BENCH_*.json
# with the documented schema (numeric headline fields, peak RSS) for
# scripts/run_all.sh consumers.
set -eu
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "usage: $0 [--quick]" >&2; exit 2 ;;
    esac
done

# Observability smoke: run a small instrumented campaign, then validate the
# exported Prometheus text — every non-comment line must be a well-formed
# `name{labels} integer` sample, and the families the dashboards are built
# on must be present.
obs_smoke() {
    echo "==> [default] obs smoke (instrumented campaign + snapshot check)"
    out="build/obs_smoke_metrics.prom"
    # campaign exits 4 when some revtrs were incomplete — fine for the smoke,
    # which only needs the metrics snapshot.
    ./build/tools/revtr_cli campaign --ases=150 --vps=10 --probes=60 \
        --revtrs=40 --parallel=2 --trace-sample=8 \
        --metrics-out="$out" >/dev/null || [ $? -eq 4 ]
    awk '
        /^# (HELP|TYPE) / { next }
        /^[A-Za-z_][A-Za-z0-9_]*(\{[^}]*\})? -?[0-9]+$/ { ++samples; next }
        { printf "obs smoke: malformed line %d: %s\n", NR, $0; bad = 1 }
        END {
            if (samples == 0) { print "obs smoke: no samples"; bad = 1 }
            exit bad
        }' "$out"
    for family in revtr_requests_total revtr_probes_total \
                  revtr_request_latency_us_count revtr_engine_stage_total; do
        if ! grep -q "^$family" "$out"; then
            echo "obs smoke: metric family $family missing from $out" >&2
            exit 1
        fi
    done
    echo "obs smoke: snapshot ok ($(grep -c '^revtr_' "$out") samples)"
}

# Bench-artifact smoke: scaled-down runs of every artifact-emitting bench
# must produce BENCH_<name>.json files with the schema the run_all.sh
# consumers rely on (numeric headline fields; see each bench's writer).
require_bench_fields() {
    artifact="$1"; shift
    if [ ! -f "$artifact" ]; then
        echo "bench smoke: $artifact was not written" >&2
        exit 1
    fi
    for field in "$@"; do
        if ! grep -q "\"$field\": *[0-9]" "$artifact"; then
            echo "bench smoke: field $field missing or non-numeric" \
                 "in $artifact" >&2
            exit 1
        fi
    done
}

bench_smoke() {
    echo "==> [default] bench artifact smoke (BENCH_*.json schemas)"
    rm -f build/BENCH_parallel_campaign.json build/BENCH_throughput.json \
          build/BENCH_micro_net.json build/BENCH_table4_packets.json
    REVTR_BENCH_DIR=build ./build/bench/bench_parallel_campaign \
        --ases=150 --vps=8 --probes=60 --revtrs=24 --pacing=0 \
        --dup-revtrs=48 --overhead-reps=1 --overhead-revtrs=200 >/dev/null
    require_bench_fields build/BENCH_parallel_campaign.json \
        requests_per_second probes_per_second latency_p50_us \
        latency_p99_us peak_rss_bytes \
        single_worker_requests_per_second single_worker_probes_per_second
    REVTR_BENCH_DIR=build ./build/bench/bench_throughput \
        --ases=150 --vps=8 --probes=60 --revtrs=20 >/dev/null
    require_bench_fields build/BENCH_throughput.json \
        effective_per_second revtrs_per_day speedup peak_rss_bytes
    REVTR_BENCH_DIR=build ./build/bench/bench_table4_packets \
        --ases=150 --vps=8 --probes=60 --revtrs=24 >/dev/null
    require_bench_fields build/BENCH_table4_packets.json \
        revtr1_total revtr2_total revtr2_traceroute_packets \
        revtr2_ratio_to_revtr1 traceroute_packets ratio_to_revtr1 \
        peak_rss_bytes
    REVTR_BENCH_DIR=build ./build/bench/bench_micro_net \
        --benchmark_filter='BM_PacketEncode|BM_PrefixTrieLookup' \
        --benchmark_min_time=0.01 >/dev/null
    require_bench_fields build/BENCH_micro_net.json \
        benchmark_count real_time cpu_time iterations peak_rss_bytes
    # run_all.sh regression: benches resolve a relative REVTR_BENCH_DIR
    # against their *own* cwd, so run_all.sh must absolutize the dir before
    # fanning out. Pin the contract: from a different cwd, an absolute dir
    # still receives the artifact.
    rm -rf build/bench_smoke_cwd
    mkdir -p build/bench_smoke_cwd/out
    abs_out="$(cd build/bench_smoke_cwd/out && pwd)"
    (cd build/bench_smoke_cwd && REVTR_BENCH_DIR="$abs_out" \
        "$OLDPWD/build/bench/bench_micro_net" \
        --benchmark_filter='BM_PacketEncode' \
        --benchmark_min_time=0.01 >/dev/null)
    require_bench_fields "$abs_out/BENCH_micro_net.json" \
        benchmark_count peak_rss_bytes
    echo "bench smoke: all artifact schemas ok (incl. cwd-independent dir)"
    # Bench-delta gate: the smoke-scale artifacts written above must not
    # regress past tolerance against the committed smoke baselines (>10%
    # drop in requests per second, >10% rise in probes per request, >15%
    # rise in latency_p99_us).
    # Full-scale baselines are compared advisorily by run_all.sh instead —
    # see README "Bench-delta gate" for the refresh procedure.
    echo "==> [default] bench delta vs bench/baselines/smoke"
    scripts/bench_delta.py --baselines bench/baselines/smoke --fresh build
}

# perfbench smoke: one short campaign run of the benchmark harness
# (perfbench/run.py builds it from src/ into build/perfbench). It gates no
# timing, only that the run finishes with every request correct and none
# failed, so the benchmark cannot silently rot between benchmark runs.
perfbench_smoke() {
    echo "==> [perfbench] smoke (campaign workload, 2 s, correctness only)"
    out="build/perfbench_smoke.out"
    CARGO_TARGET_DIR=build/perfbench python3 perfbench/run.py \
        --workload campaign --seed 1 --seconds 2 --trace 0 >"$out"
    last="$(tail -n 1 "$out")"
    if ! printf '%s\n' "$last" | grep -q '"correct": *true' ||
       ! printf '%s\n' "$last" | grep -q '"failed": *0[,}]'; then
        echo "perfbench smoke: run not correct or had failed requests:" >&2
        echo "$last" >&2
        exit 1
    fi
    echo "perfbench smoke: ok (campaign run correct, 0 failed)"
}

# revtr_lint ships its own fixture corpus (--self-test); the committed
# baseline is the check count at the last PR that touched the linter. A
# lower count means fixtures were deleted without replacement — fail rather
# than silently shrink the corpus.
LINT_SELFTEST_BASELINE=74
lint_selftest_guard() {
    out="$(./build/tools/revtr_lint --self-test)"
    echo "$out"
    checks="$(printf '%s\n' "$out" |
        sed -n 's/.*ok (\([0-9][0-9]*\) checks).*/\1/p')"
    if [ -z "$checks" ] || [ "$checks" -lt "$LINT_SELFTEST_BASELINE" ]; then
        echo "lint self-test: ${checks:-0} checks, below committed baseline" \
             "$LINT_SELFTEST_BASELINE" >&2
        exit 1
    fi
}

# Scheduler smoke: a staged campaign whose destinations heavily overlap must
# actually coalesce — the exported snapshot's revtr_probes_coalesced_total
# sample has to be positive, or cross-request dedup silently died.
sched_smoke() {
    echo "==> [default] sched smoke (staged campaign, coalescing metric > 0)"
    out="build/sched_smoke_metrics.prom"
    ./build/tools/revtr_cli campaign --ases=120 --vps=8 --probes=20 \
        --revtrs=60 --parallel=2 --staged \
        --metrics-out="$out" >/dev/null || [ $? -eq 4 ]
    coalesced="$(awk '/^revtr_probes_coalesced_total /{print $2}' "$out")"
    if [ -z "$coalesced" ] || [ "$coalesced" -le 0 ]; then
        echo "sched smoke: revtr_probes_coalesced_total=${coalesced:-missing}" \
             "on an overlapping-destination campaign" >&2
        exit 1
    fi
    echo "sched smoke: ok ($coalesced probes coalesced)"
}

# serverd smoke: the daemon + replayer end-to-end at smoke scale. First an
# in-process 1k-request closed-loop replay (hot caches, generous deadlines:
# nothing may miss), whose artifact and metrics snapshot must check out;
# then an external revtr_serverd process serving a revtr_cli client over the
# socket, which must drain and exit 0 on SIGTERM.
serverd_smoke() {
    echo "==> [default] serverd smoke (replay 1k + external daemon drain)"
    rm -f build/BENCH_serverd.json build/serverd_smoke_metrics.prom
    REVTR_BENCH_DIR=build ./build/tools/revtr_replay \
        --requests=1000 --conns=2 --mode=closed --inflight=8 \
        --ases=150 --vps=10 --probes=60 --workers=2 --deadline-ms=30000 \
        --daemon-socket=build/serverd_smoke_replay.sock \
        --metrics-out=build/serverd_smoke_metrics.prom >/dev/null
    require_bench_fields build/BENCH_serverd.json \
        requests accepted completed replay_requests_per_second \
        wall_p50_us wall_p99_us wall_p999_us peak_rss_bytes
    if ! grep -q '"deadline_missed": *0[,}]' build/BENCH_serverd.json; then
        echo "serverd smoke: deadline misses in a hot-cache closed-loop" \
             "replay with 30s budgets" >&2
        exit 1
    fi
    total="$(awk '/^revtr_server_requests_total /{print $2}' \
        build/serverd_smoke_metrics.prom)"
    if [ -z "$total" ] || [ "$total" -le 0 ]; then
        echo "serverd smoke: revtr_server_requests_total=${total:-missing}" >&2
        exit 1
    fi
    sock="build/serverd_smoke.sock"
    rm -f "$sock"
    ./build/tools/revtr_serverd --socket="$sock" --ases=100 --vps=6 \
        --probes=24 --workers=2 --sources=2 --atlas=20 \
        >build/serverd_smoke_daemon.log 2>&1 &
    daemon_pid=$!
    i=0
    while [ ! -S "$sock" ] && [ "$i" -lt 300 ]; do
        sleep 0.1
        i=$((i + 1))
    done
    ./build/tools/revtr_cli client --socket="$sock" --dest=3 \
        --deadline-ms=30000 >/dev/null
    kill -TERM "$daemon_pid"
    if ! wait "$daemon_pid"; then
        echo "serverd smoke: daemon did not drain and exit 0 on SIGTERM" \
             "(see build/serverd_smoke_daemon.log)" >&2
        exit 1
    fi
    echo "serverd smoke: ok ($total daemon requests; SIGTERM drain clean)"
}

# Agent smoke: the distributed controller/agent deployment (DESIGN.md §15)
# against the monolith, end-to-end over real processes and sockets. The
# same three client requests must print byte-identical output both ways —
# probe outcomes are content-addressed, so where they execute must not be
# observable — and SIGTERM must drain cleanly on both sides (agents first,
# then the controller). --window=2 keeps the per-agent in-flight window
# small enough that both agents actually execute probes; --pps=200 on vp-b
# runs its per-VP pacing (pacing delays probes, never changes them).
agent_smoke() {
    echo "==> [default] agent smoke (controller + 2 agents vs monolith)"
    topo="--ases=100 --vps=6 --probes=24 --seed=7"
    sock="build/agent_smoke_mono.sock"
    rm -f "$sock"
    ./build/tools/revtr_serverd --socket="$sock" $topo --workers=2 \
        --sources=2 --atlas=20 >build/agent_smoke_mono.log 2>&1 &
    daemon_pid=$!
    i=0
    while [ ! -S "$sock" ] && [ "$i" -lt 300 ]; do sleep 0.1; i=$((i+1)); done
    : >build/agent_smoke_mono.out
    for dest in 3 4 7; do
        ./build/tools/revtr_cli client --socket="$sock" --dest="$dest" \
            --deadline-ms=30000 >>build/agent_smoke_mono.out || [ $? -eq 4 ]
    done
    kill -TERM "$daemon_pid"
    if ! wait "$daemon_pid"; then
        echo "agent smoke: monolith daemon did not drain on SIGTERM" >&2
        exit 1
    fi

    sock="build/agent_smoke_remote.sock"
    rm -f "$sock"
    ./build/tools/revtr_serverd --socket="$sock" $topo --workers=2 \
        --sources=2 --atlas=20 --remote-probing \
        >build/agent_smoke_remote.log 2>&1 &
    daemon_pid=$!
    i=0
    while [ ! -S "$sock" ] && [ "$i" -lt 300 ]; do sleep 0.1; i=$((i+1)); done
    ./build/tools/revtr_agentd --socket="$sock" $topo --name=vp-a \
        --window=2 >build/agent_smoke_a.log 2>&1 &
    agent_a=$!
    ./build/tools/revtr_agentd --socket="$sock" $topo --name=vp-b \
        --window=2 --pps=200 >build/agent_smoke_b.log 2>&1 &
    agent_b=$!
    : >build/agent_smoke_remote.out
    for dest in 3 4 7; do
        ./build/tools/revtr_cli client --socket="$sock" --dest="$dest" \
            --deadline-ms=30000 >>build/agent_smoke_remote.out || [ $? -eq 4 ]
    done
    kill -TERM "$agent_a" "$agent_b"
    if ! wait "$agent_a"; then
        echo "agent smoke: agent a did not drain on SIGTERM" \
             "(see build/agent_smoke_a.log)" >&2
        exit 1
    fi
    if ! wait "$agent_b"; then
        echo "agent smoke: agent b did not drain on SIGTERM" \
             "(see build/agent_smoke_b.log)" >&2
        exit 1
    fi
    kill -TERM "$daemon_pid"
    if ! wait "$daemon_pid"; then
        echo "agent smoke: remote daemon did not drain on SIGTERM" >&2
        exit 1
    fi
    if ! cmp -s build/agent_smoke_mono.out build/agent_smoke_remote.out; then
        echo "agent smoke: remote client output differs from monolith" >&2
        diff build/agent_smoke_mono.out build/agent_smoke_remote.out >&2 ||
            true
        exit 1
    fi
    if ! grep -q 'drained' build/agent_smoke_a.log ||
       ! grep -q 'drained' build/agent_smoke_b.log; then
        echo "agent smoke: an agent exited without reporting a drain" >&2
        exit 1
    fi
    echo "agent smoke: ok (remote == monolith; clean SIGTERM drains)"
}

run_config() {
    name="$1"
    echo "==> [$name] configure"
    cmake --preset "$name" >/dev/null
    echo "==> [$name] build"
    cmake --build --preset "$name" -j "$JOBS"
    echo "==> [$name] test"
    ctest --preset "$name"
}

if [ "$QUICK" = "1" ]; then
    echo "==> [default] configure"
    cmake --preset default >/dev/null
    echo "==> [default] build"
    cmake --build --preset default -j "$JOBS"
    echo "==> [default] lint + layering"
    lint_selftest_guard
    ./build/tools/revtr_lint .
    echo "==> [default] unit tests (no fuzzer, no model-checker sweep)"
    ctest --preset default -E 'wire_fuzz|revtr_mc'
    obs_smoke
    sched_smoke
    echo "check.sh: quick gate passed (full gate: scripts/check.sh)"
    exit 0
fi

run_config default
echo "==> [default] revtr_mc deep sweep (60 seeds per shape)"
./build/tools/revtr_mc --seeds 60
echo "==> [default] lint self-test fixture floor"
lint_selftest_guard
obs_smoke
sched_smoke
serverd_smoke
agent_smoke
bench_smoke
perfbench_smoke
echo "==> [release] configure"
cmake --preset release >/dev/null
echo "==> [release] build"
cmake --build --preset release -j "$JOBS"
run_config asan
run_config ubsan
case "${REVTR_CHECK_TSAN:-1}" in
    0)
        echo "==> [tsan] skipped (REVTR_CHECK_TSAN=0)"
        ;;
    full)
        run_config tsan
        ;;
    *)
        echo "==> [tsan] configure"
        cmake --preset tsan >/dev/null
        echo "==> [tsan] build"
        cmake --build --preset tsan -j "$JOBS"
        echo "==> [tsan] concurrency suite"
        ctest --preset tsan -R 'ThreadPool|Distribution|StripedMap|ShardedMetrics|ParallelCampaign|Atlas|Ingress|ServerDaemon|AgentSplit|RunnerFrontEnds|WaitForProgress|RiderJoins|ConcurrentPumpers'
        ;;
esac

if command -v clang++ >/dev/null 2>&1; then
    echo "==> [tsa] configure (clang -Wthread-safety)"
    cmake --preset tsa >/dev/null
    echo "==> [tsa] build (thread-safety violations are hard errors)"
    cmake --build --preset tsa -j "$JOBS"
else
    echo "==> [tsa] skipped (clang++ not installed; lock discipline is" \
         "enforced lexically by revtr_lint instead)"
fi

if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy"
    find src -name '*.cpp' -print0 |
        xargs -0 clang-tidy -p build --quiet
else
    echo "==> clang-tidy skipped (binary not installed; see .clang-tidy)"
fi

echo "check.sh: all configurations passed"
