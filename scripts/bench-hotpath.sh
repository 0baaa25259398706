#!/bin/sh
# Runs the hot-path benchmark suite (hit path, refresh scheduler, store
# replacement and eviction churn, disk-tier promotion churn, push
# fan-out with and without payloads, value-push apply) with enough
# repetitions for benchgate's significance test, printing go test -bench
# output to stdout.
#
# Usage: scripts/bench-hotpath.sh [count]
set -eu
cd "$(dirname "$0")/.."
COUNT="${1:-6}"

go test -run '^$' -count "$COUNT" -benchtime 200ms \
    -bench 'BenchmarkProxyHitParallel$|BenchmarkProxyHitSingleObject$|BenchmarkProxyChurnParallel$|BenchmarkProxyDiskChurnParallel$|BenchmarkRefreshSchedulerThroughput$' .
go test -run '^$' -count "$COUNT" -benchtime 200ms \
    -bench 'BenchmarkStoreEvictScan$|BenchmarkStoreHitMark$|BenchmarkValuePushApply$' ./internal/webproxy
# -benchmem so benchgate's alloc gate (-alloc-filter) can hold the
# publish path to its allocation budget, not just its latency.
go test -run '^$' -count "$COUNT" -benchtime 200ms -benchmem \
    -bench 'BenchmarkHubPublishFanout$|BenchmarkHubPublishFanoutFiltered$|BenchmarkHubPublishFanoutPayload$|BenchmarkHubPublishFanoutDelta$|BenchmarkHubPublishContended$|BenchmarkHubReplayPartitioned$|BenchmarkEventRender$|BenchmarkDeltaApply$' ./internal/push
