#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml for offline use: a Release build
# running the full suite, an observability pass (same build, GAIA_OBS=1 +
# metrics_snapshot JSON validation), a robustness pass (fault-injection suite
# + randomized-seed chaos serve/train and a sharded chaos storm under
# GAIA_FAULTS), a perf pass (kernel-equivalence tests, then a bench/harness
# small-scale run gated by tools/bench_compare including the packed-vs-naive
# MatMul pair check; see docs/BENCHMARKING.md and docs/PERFORMANCE.md), a
# sharded-serving pass
# (shard-labelled concurrency tests + multi-shard CLI smoke + throughput
# scaling check), an admin-plane pass (admin-labelled tests + a live
# serve with --admin-port driven over HTTP: /healthz flip, /metrics scrape,
# /requestz, /quitz shutdown, plus the tools' --empty dumps), a scenario
# pass (scenario-labelled regime/drift chaos tests + a randomized adversarial
# regime with an echoed GAIA_REGIME_SEED that the full simulate/train/serve
# pipeline must survive), an ASan+UBSan build running the full suite, then a
# TSan build running the concurrency/robust/cancel/shard/admin/scenario
# subset (the concurrency tentpoles' race check), and a benchmark-package
# pass (gaia_bench's own bench-labelled tests: its TailQuantile unit test
# and the all-workload smoke run, which byte-checks every served answer and
# memcmps the per-module forward against PredictEgo).
#
#   tools/ci.sh            # all jobs
#   tools/ci.sh release    # release job only
#   tools/ci.sh obs        # observability job only (reuses build/)
#   tools/ci.sh robust     # robustness job only (reuses build/)
#   tools/ci.sh perf       # perf job only (reuses build/)
#   tools/ci.sh shard      # sharded-serving job only (reuses build/)
#   tools/ci.sh admin      # admin-plane job only (reuses build/)
#   tools/ci.sh scenario   # scenario/chaos regime job only (reuses build/)
#   tools/ci.sh sanitize   # ASan+UBSan job only
#   tools/ci.sh tsan       # TSan job only
#   tools/ci.sh bench      # gaia_bench package job only
set -euo pipefail
cd "$(dirname "$0")/.."

job="${1:-all}"
jobs=$(nproc)

if [[ "$job" == "release" || "$job" == "all" ]]; then
  echo "=== Release build + full test suite ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j"$jobs"
  ctest --test-dir build --output-on-failure -j"$jobs"
fi

if [[ "$job" == "obs" || "$job" == "all" ]]; then
  echo "=== Observability enabled: full suite under GAIA_OBS=1 + snapshot check ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j"$jobs"
  # Determinism and goldens must hold with instrumentation recording.
  GAIA_OBS=1 ctest --test-dir build --output-on-failure -j"$jobs"
  # metrics_snapshot must emit valid JSON with the documented per-phase keys.
  ./build/tools/metrics_snapshot --epochs 2 --shops 50 --threads 2 \
    > build/metrics_snapshot.json
  python3 - build/metrics_snapshot.json <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["schema"] == "gaia.metrics_snapshot/1", snap.get("schema")
for phase in ("ffl.forward", "tel.forward", "ita_gcn.forward",
              "autograd.backward", "server.predict_batch"):
    assert phase in snap["phases"], f"missing phase: {phase}"
    assert snap["phases"][phase]["count"] > 0, f"empty phase: {phase}"
assert "utilization" in snap["thread_pool"]
assert "counters" in snap["metrics"] and "histograms" in snap["metrics"]
print("metrics_snapshot.json OK:", len(snap["phases"]), "phases")
EOF
fi

if [[ "$job" == "robust" || "$job" == "all" ]]; then
  echo "=== Robustness: fault-injection suite + randomized chaos serve ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j"$jobs"
  # Deterministic fault matrix: checkpoint corruption, rollback, degradation.
  ctest --test-dir build --output-on-failure -L robust --no-tests=error -j"$jobs"
  # Randomized chaos replay of the serve pipeline. The seed is echoed so any
  # failure reproduces exactly (GAIA_FAULTS_SEED=<seed> tools/ci.sh robust).
  # Bounded-count rules (prob 1.0, max fires) stay within the retry budgets;
  # probabilistic rules land on the degradation ladder, which never fails a
  # request — so the run must exit 0 at any seed.
  chaos_dir=$(mktemp -d)
  ./build/tools/gaia_cli simulate --out "$chaos_dir/market" --shops 80 \
    --history 18 --seed 7
  ./build/tools/gaia_cli train --market "$chaos_dir/market" \
    --checkpoint "$chaos_dir/ckpt.bin" --epochs 3 --channels 8 --layers 1
  seed="${GAIA_FAULTS_SEED:-$RANDOM}"
  echo "chaos serve with GAIA_FAULTS_SEED=$seed"
  GAIA_FAULTS_SEED="$seed" \
  GAIA_FAULTS="market.read:io:1.0:1;checkpoint.read:unavailable:1.0:2;serving.forward:nan:0.2;serving.forward:unavailable:0.1;graph.ego_extract:corrupt:0.1" \
    ./build/tools/gaia_cli serve --market "$chaos_dir/market" \
    --checkpoint "$chaos_dir/ckpt.bin" --requests 200 --channels 8 --layers 1
  # Chaos train: probabilistic faults on the optimizer-step site skip the
  # faulted epochs' optimizer steps but must still publish a checkpoint that
  # verifies (the evaluate run below loads it, so a corrupt file fails).
  echo "chaos train with GAIA_FAULTS_SEED=$seed"
  GAIA_FAULTS_SEED="$seed" \
  GAIA_FAULTS="train.optimizer_step:unavailable:0.44" \
    ./build/tools/gaia_cli train --market "$chaos_dir/market" \
    --checkpoint "$chaos_dir/ckpt_chaos.bin" --epochs 4 --channels 8 --layers 1
  ./build/tools/gaia_cli evaluate --market "$chaos_dir/market" \
    --checkpoint "$chaos_dir/ckpt_chaos.bin" --channels 8 --layers 1
  # Sharded chaos: the same randomized seed drives checkpoint.read faults
  # and forward-path faults while 4 client threads hammer a 4-shard tier.
  # The RCU generation swap and the retry/degradation ladder must keep every
  # request answered, so this too must exit 0 at any seed.
  echo "chaos sharded serve with GAIA_FAULTS_SEED=$seed"
  GAIA_FAULTS_SEED="$seed" \
  GAIA_FAULTS="checkpoint.read:unavailable:1.0:2;serving.forward:nan:0.2;serving.forward:unavailable:0.1" \
    ./build/tools/gaia_cli serve --market "$chaos_dir/market" \
    --checkpoint "$chaos_dir/ckpt.bin" --requests 200 --channels 8 --layers 1 \
    --shards 4 --clients 4
  # Randomized-seed replay of the shard suite's publish/serve chaos storm
  # (the in-process CheckpointStore + ShardedServer torn-read property).
  GAIA_FAULTS_SEED="$seed" ctest --test-dir build --output-on-failure \
    -L shard --no-tests=error -j"$jobs"
  rm -rf "$chaos_dir"
fi

if [[ "$job" == "perf" || "$job" == "all" ]]; then
  echo "=== Perf: kernel equivalence + bench/harness run + bench_compare gate ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j"$jobs"
  # Kernel-equivalence leg: before trusting any bench win, prove the packed
  # MatMul is bitwise-identical to the naive kernel at every shape and thread
  # count (tests/matmul_equivalence_test, label perf). A fast wrong kernel
  # must never pass this job.
  ctest --test-dir build --output-on-failure -L perf --no-tests=error -j"$jobs"
  # The same suite also carries the concurrency label, so the TSan leg runs
  # its thread-count invariance case; a label list that loses its second
  # entry would silently drop it from one of the two legs.
  for label in perf concurrency; do
    listed=$(ctest --test-dir build -N -L "$label")
    if ! grep -q MatMulEquivalenceTest <<< "$listed"; then
      echo "MatMulEquivalenceTest is missing from ctest label $label" >&2
      exit 1
    fi
  done
  # The comparator gates itself first: verdict logic on synthetic documents.
  tools/bench_compare --self-test
  # Small-scale run of all five measured layers; the artifact stays at the
  # repo root for upload/inspection.
  ./build/bench/perf_suite --reps 5 --warmup 1 --json BENCH_perf.json
  # An identical self-compare must pass at the strict default thresholds...
  tools/bench_compare BENCH_perf.json BENCH_perf.json
  # ...and a doctored copy with every median doubled must fail — proves the
  # gate actually trips before we rely on it.
  python3 - BENCH_perf.json build/BENCH_doctored.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for case in doc["cases"]:
    case["wall_ns"]["median"] *= 2.0
json.dump(doc, open(sys.argv[2], "w"))
EOF
  if tools/bench_compare BENCH_perf.json build/BENCH_doctored.json; then
    echo "bench_compare failed to flag a 2x slowdown" >&2
    exit 1
  fi
  # Cross-machine gate against the checked-in baseline, plus the within-run
  # packed-vs-naive pair: the blocked kernel must beat the naive one in the
  # same process on the same operands, which holds across machines (unlike
  # the baseline medians). On >=4-core hosts the blocked kernel also gets
  # the parallel row-block fan-out, so the bar rises to 1.5x; single-core
  # runners only have the cache/register win, so the bar is 1.05x.
  if [[ "$jobs" -ge 4 ]]; then pair_factor=1.5; else pair_factor=1.05; fi
  echo "kernel pair gate: packed must beat naive by ${pair_factor}x ($jobs cores)"
  tools/bench_compare bench/baselines/small.json BENCH_perf.json \
    --rel-tol 1.5 --mad-mult 8 --min-ns 500000 --missing-ok \
    --require-faster "tensor.matmul_naive_256:tensor.matmul_packed_256:${pair_factor}"
fi

if [[ "$job" == "shard" || "$job" == "all" ]]; then
  echo "=== Sharded serving: shard tests + multi-shard CLI smoke + scaling ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j"$jobs"
  # The queue/window/RCU/chaos concurrency suite (tests/sharded_serving_test).
  ctest --test-dir build --output-on-failure -L shard --no-tests=error -j"$jobs"
  # End-to-end smoke: concurrent clients against a 4-shard tier over a real
  # trained checkpoint.
  shard_dir=$(mktemp -d)
  ./build/tools/gaia_cli simulate --out "$shard_dir/market" --shops 80 \
    --history 18 --seed 7
  ./build/tools/gaia_cli train --market "$shard_dir/market" \
    --checkpoint "$shard_dir/ckpt.bin" --epochs 3 --channels 8 --layers 1
  ./build/tools/gaia_cli serve --market "$shard_dir/market" \
    --checkpoint "$shard_dir/ckpt.bin" --requests 200 --channels 8 --layers 1 \
    --shards 4 --clients 4
  rm -rf "$shard_dir"
  # Throughput vs shard count; the >=2x-at-4-shards bar is enforced only on
  # multi-core hosts (single-core runners are legitimately flat).
  ./build/bench/serve_throughput --reps 3 --warmup 1 --check-scaling
fi

if [[ "$job" == "admin" || "$job" == "all" ]]; then
  echo "=== Admin plane: admin tests + live endpoint smoke over HTTP ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j"$jobs"
  # EventLog ring, endpoint routing, /metrics byte-identity and request-id
  # correlation (tests/admin_server_test, label admin).
  ctest --test-dir build --output-on-failure -L admin --no-tests=error -j"$jobs"
  # End-to-end smoke: a real serve with --admin-port, driven over HTTP.
  admin_dir=$(mktemp -d)
  ./build/tools/gaia_cli simulate --out "$admin_dir/market" --shops 80 \
    --history 18 --seed 7
  ./build/tools/gaia_cli train --market "$admin_dir/market" \
    --checkpoint "$admin_dir/ckpt.bin" --epochs 3 --channels 8 --layers 1
  # --admin-wait 1 parks the process after the replay until GET /quitz, so
  # the scrapes below observe the finished run's counters and event log.
  ./build/tools/gaia_cli serve --market "$admin_dir/market" \
    --checkpoint "$admin_dir/ckpt.bin" --requests 50 --channels 8 --layers 1 \
    --shards 2 --admin-port 0 --admin-wait 1 2> "$admin_dir/admin.log" &
  serve_pid=$!
  # The ephemeral port is announced on stderr once the listener is up.
  port=""
  for _ in $(seq 1 50); do
    port=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$admin_dir/admin.log" | head -1)
    [[ -n "$port" ]] && break
    sleep 0.2
  done
  [[ -n "$port" ]] || { echo "admin port never announced" >&2; exit 1; }
  python3 - "$port" <<'EOF'
import json, sys, time, urllib.request

port = sys.argv[1]
base = f"http://127.0.0.1:{port}"

def get(path):
    try:
        with urllib.request.urlopen(base + path, timeout=5) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()

# /healthz flips to 200 once the checkpoint generation is adopted.
for _ in range(100):
    status, _ = get("/healthz")
    if status == 200:
        break
    time.sleep(0.2)
assert status == 200, f"/healthz never turned healthy: {status}"

status, body = get("/metrics")
assert status == 200
assert "gaia_serve_requests_total" in body, body[:400]
assert "gaia_admin_requests_total" in body, body[:400]

status, body = get("/requestz?n=10")
assert status == 200
doc = json.loads(body)
assert doc["total_appended"] >= 50, doc["total_appended"]
assert len(doc["events"]) > 0 and "request_id" in doc["events"][0]

status, body = get("/statusz")
assert status == 200
doc = json.loads(body)
assert doc["checks"]["checkpoint_loaded"] is True
assert "checkpoint_crc32" in doc["info"]

assert get("/quitz")[0] == 200
print("admin endpoints OK on port", port)
EOF
  wait "$serve_pid"
  # The --empty tool paths: an idle process must still dump valid documents.
  ./build/tools/metrics_snapshot --empty > "$admin_dir/empty_snap.json"
  ./build/tools/trace_dump --empty --out "$admin_dir/empty_trace.json"
  python3 - "$admin_dir/empty_snap.json" "$admin_dir/empty_trace.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["phases"] == {}, snap["phases"]
trace = json.load(open(sys.argv[2]))
assert trace["traceEvents"] == [], trace["traceEvents"]
print("empty-process dumps OK")
EOF
  rm -rf "$admin_dir"
fi

if [[ "$job" == "scenario" || "$job" == "all" ]]; then
  echo "=== Scenario: adversarial regimes + online drift score ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j"$jobs"
  # The scripted scenario suite: regime grammar/determinism, shocked-market
  # invariants, the drift score under a regime onset, quantile bands.
  ctest --test-dir build --output-on-failure -L scenario --no-tests=error -j"$jobs"
  # Randomized-regime chaos: a random adversarial script (demand shocks,
  # supplier cascades, festival shifts, cold-start floods) drawn from an
  # echoed seed must survive the full simulate -> train -> serve pipeline.
  # Any failure replays exactly with GAIA_REGIME_SEED=<seed> tools/ci.sh
  # scenario — the CLI prints the regime spec it resolved the seed to.
  scen_dir=$(mktemp -d)
  seed="${GAIA_REGIME_SEED:-$RANDOM}"
  echo "regime chaos with GAIA_REGIME_SEED=$seed"
  GAIA_REGIME_SEED="$seed" ./build/tools/gaia_cli simulate \
    --out "$scen_dir/market" --shops 80 --history 18 --seed 7 \
    --regime random
  ./build/tools/gaia_cli train --market "$scen_dir/market" \
    --checkpoint "$scen_dir/ckpt.bin" --epochs 3 --channels 8 --layers 1
  ./build/tools/gaia_cli serve --market "$scen_dir/market" \
    --checkpoint "$scen_dir/ckpt.bin" --requests 100 --channels 8 --layers 1
  # Scripted-regime determinism: the same spec twice must produce
  # byte-identical market files.
  regime_spec="seed:11;demand_shock:month=9,magnitude=-0.5;coldstart_flood:month=12,fraction=0.2"
  ./build/tools/gaia_cli simulate --out "$scen_dir/market_a" --shops 80 \
    --history 18 --seed 7 --regime "$regime_spec"
  ./build/tools/gaia_cli simulate --out "$scen_dir/market_b" --shops 80 \
    --history 18 --seed 7 --regime "$regime_spec"
  diff -r "$scen_dir/market_a" "$scen_dir/market_b"
  rm -rf "$scen_dir"
fi

if [[ "$job" == "sanitize" || "$job" == "all" ]]; then
  echo "=== ASan+UBSan build + full test suite ==="
  cmake -B build-asan -S . -DGAIA_SANITIZE=ON
  cmake --build build-asan -j"$jobs"
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=0 GAIA_OBS=1 \
    ctest --test-dir build-asan --output-on-failure -j"$jobs"
fi

if [[ "$job" == "tsan" || "$job" == "all" ]]; then
  echo "=== TSan build + concurrency/robust/cancel/shard/admin/scenario tests ==="
  cmake -B build-tsan -S . -DGAIA_SANITIZE=thread
  cmake --build build-tsan -j"$jobs"
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure \
    -L "concurrency|robust|cancel|shard|admin|scenario" --no-tests=error
fi

if [[ "$job" == "bench" || "$job" == "all" ]]; then
  echo "=== gaia_bench package: bench-labelled tests (unit + smoke) ==="
  # The benchmark of record builds ../src as a package of its own, so it
  # gets its own build tree.
  cmake -S gaia_bench -B build-bench -DCMAKE_BUILD_TYPE=Release
  cmake --build build-bench -j"$jobs"
  ctest --test-dir build-bench --output-on-failure -L bench --no-tests=error
fi
