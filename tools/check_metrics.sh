#!/usr/bin/env bash
# Metrics-catalog drift check: every metric family emitted from src/ via the
# obs helpers (obs::count / obs::gauge_set / obs::observe) must have a row in
# the docs/observability.md catalog, or the check fails. This is the inverse
# direction of tools/check_docs.sh, which verifies documented names exist in
# code; together the catalog and the instrumentation cannot drift apart.
# Registered as the `check_metrics` ctest; run manually from the repository
# root as `tools/check_metrics.sh`.
set -u

cd "$(dirname "$0")/.." || exit 2

CATALOG=docs/observability.md
if [ ! -f "$CATALOG" ]; then
  echo "check_metrics: $CATALOG missing" >&2
  exit 2
fi

failures=0
# Emission sites: the obs helpers called with a literal name, plus the
# per-verb latency histograms named in the VerbSpec rows of
# src/service/wire.cpp (run_job observes a row's latency_us).
sites='obs::(count|gauge_set|observe|maybe_histogram)\("[^"]+"'
rows='"service\.latency\.[a-z_]+_us"'
emitted=$(grep -rhoE "$sites|$rows" src | sed -E 's/.*"([^"]+)"$/\1/' | sort -u)

if [ -z "$emitted" ]; then
  echo "check_metrics: found no instrumented sites under src/ — the grep is broken" >&2
  exit 2
fi

count=0
for name in $emitted; do
  count=$((count + 1))
  if ! grep -Fq "\`$name\`" "$CATALOG"; then
    echo "check_metrics: \`$name\` is emitted in src/ but missing from $CATALOG" >&2
    failures=$((failures + 1))
  fi
done

# Required families: the telemetry-streaming and tracing surface must stay
# both emitted and cataloged — these names are load-bearing for the
# `subscribe` stream consumers and the docs' ops guidance, so a rename or
# removal has to show up here, not in a consumer.
required="service.telemetry.subscribed service.telemetry.subscribers
service.telemetry.ticks service.telemetry.dropped_ticks
service.trace.requests
service.deadline.expired fleet.shards_down fleet.redistributed_load"
for name in $required; do
  if ! printf '%s\n' "$emitted" | grep -Fxq "$name"; then
    echo "check_metrics: required metric \`$name\` is no longer emitted from src/" >&2
    failures=$((failures + 1))
  fi
  if ! grep -Fq "\`$name\`" "$CATALOG"; then
    echo "check_metrics: required metric \`$name\` has no catalog row in $CATALOG" >&2
    failures=$((failures + 1))
  fi
done

if [ "$failures" -gt 0 ]; then
  echo "check_metrics: $failures undocumented metric(s)" >&2
  exit 1
fi
echo "check_metrics: OK ($count emitted metric names all cataloged)"
