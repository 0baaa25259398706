#!/bin/sh
# Runs the hot-path benchmark suite (hit path, refresh scheduler, store
# replacement and eviction churn, disk-tier promotion churn, the disk
# store's durable read and write, push fan-out with and without
# payloads, value-push apply) with enough repetitions for benchgate's
# significance test, printing go test -bench output to stdout.
#
# Usage: scripts/bench-hotpath.sh [count]
set -eu
cd "$(dirname "$0")/.."
COUNT="${1:-6}"

# -benchmem here and below so benchgate's alloc gate (-alloc-filter)
# can hold the hit path and the publish path to their allocation
# budgets, not just their latency.
go test -run '^$' -count "$COUNT" -benchtime 200ms -benchmem \
    -bench 'BenchmarkProxyHitParallel$|BenchmarkProxyHitSingleObject$|BenchmarkProxyChurnParallel$|BenchmarkProxyDiskChurnParallel$|BenchmarkRefreshSchedulerThroughput$' .
go test -run '^$' -count "$COUNT" -benchtime 200ms \
    -bench 'BenchmarkStoreEvictScan$|BenchmarkStoreHitMark$|BenchmarkValuePushApply$' ./internal/webproxy
# The disk tier's promotion read (one pread plus the digest check) and
# its durable write.
go test -run '^$' -count "$COUNT" -benchtime 200ms -benchmem \
    -bench 'BenchmarkStoreGet$|BenchmarkStorePut$' ./internal/diskstore
go test -run '^$' -count "$COUNT" -benchtime 200ms -benchmem \
    -bench 'BenchmarkHubPublishFanout$|BenchmarkHubPublishFanoutFiltered$|BenchmarkHubPublishFanoutPayload$|BenchmarkHubPublishFanoutDelta$|BenchmarkHubPublishContended$|BenchmarkHubReplayPartitioned$|BenchmarkEventRender$|BenchmarkDeltaApply$' ./internal/push
