#!/usr/bin/env bash
# One-command verification gate: configure + build + ctest (the
# tier-1 command), optionally under AddressSanitizer/UBSan.
#
#   scripts/check.sh           # Release build + full test suite
#   scripts/check.sh --quick   # Fast-label tests only (inner loop)
#   scripts/check.sh --asan    # Sanitizer build + full test suite
#                              # (ASan/UBSan + _GLIBCXX_ASSERTIONS
#                              # bounds-checked container indexing)
#   scripts/check.sh --tsan    # ThreadSanitizer build of the threaded
#                              # suites only (engine pool, shard tier,
#                              # the per-process stand-in memo)
#   scripts/check.sh --bench   # Also run sim-speed + the sbsim grid
#   scripts/check.sh --verify  # Also run the Spectre gadget battery
#   scripts/check.sh --contracts # Also judge the battery under the
#                              # constant-time contract + run the
#                              # contract_check fuzz scenario
#   scripts/check.sh --fuzz    # Also run the conformance fuzz smoke
#   scripts/check.sh --mitigations # Also prove each software
#                              # mitigation's gadget closure and run a
#                              # mitigated conformance slice
#   scripts/check.sh --docs    # Also run the markdown docs link check
#   scripts/check.sh --shards  # Also run the shard-tier smoke
#                              # (cold sharded run == in-process run
#                              # over every cell kind, a crash storm
#                              # that must converge, and SIGINT to
#                              # sharded, threaded and fuzz runs,
#                              # which must exit 130)
#   scripts/check.sh --tenants # Also run the multi-tenant server mix
#                              # and gate on its cross-tenant verdict
#
# SB_JOBS bounds simulation worker threads (tests and sbsim).
# Flags compose: e.g. `check.sh --asan --verify`. --tsan builds no
# sbsim, so it takes only --quick and --docs beside it.
#
# Every optional block runs with its exit status checked explicitly:
# a failing bench or battery fails the script even as the final
# command (a bare trailing `if` can otherwise mask the status under
# `set -e`, which does not apply inside conditionals).
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=build
cmake_flags=()
build_flags=()
ctest_flags=()
run_bench=0
run_verify=0
run_contracts=0
run_fuzz=0
run_mitigations=0
run_docs=0
run_shards=0
run_tenants=0
run_asan=0
run_tsan=0
for arg in "$@"; do
    case "$arg" in
      --asan)
        run_asan=1
        build_dir=build-asan
        cmake_flags+=(-DSB_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug)
        ;;
      --tsan)
        # Sanitizer flags go through the compiler/linker variables, not
        # a project option: only these three suites are built and run.
        run_tsan=1
        build_dir=build-tsan
        cmake_flags+=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
                      "-DCMAKE_CXX_FLAGS=-fsanitize=thread -g"
                      "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread")
        build_flags+=(--target test_engine test_shard test_workloads)
        ctest_flags+=(-R '^(test_engine|test_shard|test_workloads)$')
        ;;
      --quick)
        # Inner-loop slice: only tests labelled `fast` (see the label
        # taxonomy in CMakeLists.txt). The full suite stays the gate.
        ctest_flags+=(-L fast)
        ;;
      --bench)
        run_bench=1
        ;;
      --verify)
        run_verify=1
        ;;
      --contracts)
        run_contracts=1
        ;;
      --fuzz)
        run_fuzz=1
        ;;
      --mitigations)
        run_mitigations=1
        ;;
      --docs)
        run_docs=1
        ;;
      --shards)
        run_shards=1
        ;;
      --tenants)
        run_tenants=1
        ;;
      *)
        echo "usage: $0 [--asan | --tsan] [--quick] [--bench] [--verify]" \
             "[--contracts] [--fuzz] [--mitigations] [--docs]" \
             "[--shards] [--tenants]" >&2
        exit 2
        ;;
    esac
done

sbsim_gates=$((run_bench + run_verify + run_contracts + run_fuzz
               + run_mitigations + run_shards + run_tenants))
if [ "$run_tsan" = 1 ] && { [ "$run_asan" = 1 ] || [ "$sbsim_gates" != 0 ]; }; then
    echo "usage: $0 --tsan [--quick] [--docs] (--tsan builds only" \
         "test_engine, test_shard and test_workloads)" >&2
    exit 2
fi

jobs=$(nproc 2>/dev/null || echo 2)

cmake -B "$build_dir" -S . "${cmake_flags[@]}"
cmake --build "$build_dir" -j "$jobs" "${build_flags[@]}"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
      "${ctest_flags[@]}"

status=0

if [ "$run_contracts" = 1 ]; then
    # Contract shadow gate: the battery re-judged under the strictest
    # (constant-time) policy, plus the contract_check scenario over
    # the fuzz corpus. `sbsim verify` always writes SBSIM_verify.json,
    # so this block runs before --verify and moves its matrix aside:
    # the --verify block then writes the declared-contract matrix
    # under the plain name. --no-cache for the same reason as the
    # battery: a cached verdict must never green-light a broken
    # scheme.
    if (cd "$build_dir" \
        && ./sbsim verify --contract constant-time --no-cache --json \
        && mv SBSIM_verify.json SBSIM_verify_ct.json \
        && ./sbsim run contract_check --no-cache); then
        echo "constant-time matrix: $build_dir/SBSIM_verify_ct.json"
    else
        echo "FAIL: contract shadow check" >&2
        status=1
    fi
fi

if [ "$run_verify" = 1 ]; then
    # The security battery: every gadget x scheme cell, differentially
    # checked; `sbsim verify` exits nonzero on any contract breach.
    # Deliberately --no-cache: the result cache is addressed by
    # configuration, not by simulator/scheme *code*, so a cached
    # verdict could green-light a scheme broken by the very change
    # under test. The battery re-simulates in ~2 s; honesty is cheap.
    if (cd "$build_dir" && ./sbsim verify --no-cache --json); then
        echo "leak matrix: $build_dir/SBSIM_verify.json"
    else
        echo "FAIL: security battery reported a leak / divergence" >&2
        status=1
    fi
fi

if [ "$run_fuzz" = 1 ]; then
    # Differential conformance smoke: random programs under every
    # scheme vs the Baseline's architectural results. Like the
    # security battery, deliberately --no-cache: a cached conformance
    # verdict must never green-light a scheme broken by the change
    # under test.
    if (cd "$build_dir" && ./sbsim fuzz --programs 50 --no-cache --json); then
        echo "conformance report: $build_dir/SBSIM_fuzz.json"
    else
        echo "FAIL: conformance fuzz found a divergence/deadlock" >&2
        status=1
    fi
fi

if [ "$run_mitigations" = 1 ]; then
    # Software-mitigation gate: each pass must close exactly its
    # target gadgets on the unprotected core (`sbsim verify
    # --mitigation` exits nonzero on any closure miss), and a
    # mitigated conformance slice must stay architecturally
    # equivalent to the unmitigated oracle. --no-cache for the same
    # reason as the battery: a cached verdict must never green-light
    # a pass broken by the change under test.
    for m in slh fence retpoline; do
        if (cd "$build_dir" && ./sbsim verify --mitigation "$m" --no-cache --json); then
            echo "closure matrix: $build_dir/SBSIM_verify_$m.json"
        else
            echo "FAIL: mitigation $m missed its closure contract" >&2
            status=1
        fi
        if (cd "$build_dir" && ./sbsim fuzz --programs 10 --mitigation "$m" --no-cache); then
            :
        else
            echo "FAIL: mitigation $m broke architectural equivalence" >&2
            status=1
        fi
    done
fi

if [ "$run_bench" = 1 ]; then
    if (cd "$build_dir" && ./bench_simspeed); then
        echo "sim-speed results: $build_dir/BENCH_simspeed.json"
    else
        echo "FAIL: bench_simspeed" >&2
        status=1
    fi
    # Full grid through the scenario engine: dedup + result cache make
    # a warm rerun near-instant; BENCH_gridspeed.json tracks grid
    # throughput across PRs next to BENCH_simspeed.json.
    if (cd "$build_dir" && ./sbsim all --cache-dir .sbsim-cache > sbsim_all.log); then
        tail -n 12 "$build_dir/sbsim_all.log"
        echo "grid-speed results: $build_dir/BENCH_gridspeed.json (full report: $build_dir/sbsim_all.log)"
    else
        echo "FAIL: sbsim all (log: $build_dir/sbsim_all.log)" >&2
        status=1
    fi
fi

if [ "$run_shards" = 1 ]; then
    # Shard-tier smoke: a COLD sharded run (fresh cache, forked
    # workers) must produce byte-identical outcome dumps to an
    # in-process run, over one scenario per cell kind: table1 (window),
    # security (gadget), conformance (fuzz) and multi_tenant (mt, plus
    # its summary). This is the end-to-end distributed-correctness
    # gate; the fault-injection paths are covered by
    # tests/test_shard.cpp in the suite above.
    shard_tmp=$(mktemp -d)
    shard_ok=1
    for mode in sharded inproc; do
        if [ "$mode" = sharded ]; then
            flags=(--shards 2 --cache-dir "$shard_tmp/cache")
        else
            flags=(--no-cache --jobs 4)
        fi
        mkdir -p "$shard_tmp/$mode"
        (cd "$build_dir" \
         && ./sbsim run table1 security conformance multi_tenant \
              "${flags[@]}" --json > /dev/null \
         && mv SBSIM_table1.json SBSIM_security.json \
               SBSIM_conformance.json SBSIM_multi_tenant.json \
               SBSIM_multi_tenant_summary.json "$shard_tmp/$mode/") \
            || shard_ok=0
    done
    if [ "$shard_ok" = 1 ] \
       && diff -r "$shard_tmp/sharded" "$shard_tmp/inproc"; then
        echo "shard smoke: sharded == in-process (byte-identical)"
    else
        echo "FAIL: sharded run diverged from in-process run" >&2
        status=1
    fi
    # Crash storm: every worker generation dies before its 5th reply.
    # The supervisor must converge (retries served from the shared
    # cache written before each crash) and exit 0, or exit 1 with an
    # explicit quarantine report; never wedge or die.
    storm=0
    (cd "$build_dir" \
     && SB_FAULT=crash:5 ./sbsim run table1 --shards 2 \
          --cache-dir "$shard_tmp/storm-cache" > /dev/null) || storm=$?
    if [ "$storm" -le 1 ]; then
        echo "crash storm: converged or quarantined loudly (exit $storm)"
    else
        echo "FAIL: crash-storm run exited $storm" >&2
        status=1
    fi
    # Interrupt smoke: SIGINT one second into runs that take several
    # times that (sharded, threaded, and the fuzz verb). Each must
    # print its partial results, exit 128+SIGINT = 130, and leave no
    # sbsim process (a shard worker included) behind. The fuzz report
    # must count its cut-short cells in one line, listing none of them
    # as a failure with a repro.
    irq_runs=("run table5 --no-cache --shards 2"
              "run table5 --no-cache --jobs 2"
              "fuzz --programs 3000 --no-cache --jobs 2")
    irq_pids=()
    for k in "${!irq_runs[@]}"; do
        # shellcheck disable=SC2086 # each entry is an argument list
        (cd "$build_dir" \
         && exec ./sbsim ${irq_runs[$k]} > "$shard_tmp/irq$k.out" \
              2> "$shard_tmp/irq$k.err") &
        irq_pids+=("$!")
    done
    sleep 1
    kill -INT "${irq_pids[@]}"
    for k in "${!irq_runs[@]}"; do
        code=0
        wait "${irq_pids[$k]}" || code=$?
        if [ "$code" = 130 ] \
           && grep -q "interrupted; partial results" "$shard_tmp/irq$k.err"; then
            echo "interrupt smoke: sbsim ${irq_runs[$k]}: exit 130, partial results"
        else
            echo "FAIL: sbsim ${irq_runs[$k]} exited $code on SIGINT" >&2
            cat "$shard_tmp/irq$k.err" >&2
            status=1
        fi
        if [[ ${irq_runs[$k]} == fuzz* ]]; then
            if ! grep -q "repro:" "$shard_tmp/irq$k.out" \
               && [ "$(grep -c unfinished "$shard_tmp/irq$k.out")" = 1 ]; then
                echo "interrupt smoke: sbsim ${irq_runs[$k]}: one unfinished line, no repro"
            else
                echo "FAIL: sbsim ${irq_runs[$k]} listed cut-short cells" >&2
                grep -m 5 "repro:\|unfinished" "$shard_tmp/irq$k.out" >&2 || true
                status=1
            fi
        fi
    done
    # Same process group: the runs above and any worker they forked.
    if pgrep -g 0 -x sbsim > /dev/null; then
        echo "FAIL: sbsim processes left after the interrupt smoke" >&2
        pgrep -a -g 0 -x sbsim >&2 || true
        status=1
    fi
    rm -rf "$shard_tmp"
fi

if [ "$run_tenants" = 1 ]; then
    # Multi-tenant gate: the consolidated-server mix across the
    # scheme roster x switch policies. --no-cache like the battery: a
    # cached verdict must never green-light a broken scheme. The
    # report's verdict is the exit code: Baseline must show a
    # cross-tenant transmit (the battery is armed), no scheme with a
    # dataflow obligation may, and a cut-short row fails it.
    if (cd "$build_dir" \
        && ./sbsim run multi_tenant --no-cache > /dev/null); then
        echo "multi-tenant report: $build_dir/SBSIM_multi_tenant_summary.json"
    else
        echo "FAIL: multi-tenant cross-domain gate" >&2
        status=1
    fi
fi

if [ "$run_docs" = 1 ]; then
    # Markdown link/anchor check: the docs layer must not rot.
    if python3 scripts/check_docs.py; then
        :
    else
        echo "FAIL: broken markdown links (scripts/check_docs.py)" >&2
        status=1
    fi
fi

exit "$status"
