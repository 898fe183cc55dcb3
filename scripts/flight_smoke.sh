#!/usr/bin/env sh
# End-to-end flight-recorder smoke test: boot webiq-serve under the p30
# chaos profile with a tight admission queue and the flight recorder on,
# drive concurrent request-time probe traffic — /source/{ifc}/search
# probes and /unified/{domain}/search fan-outs, which reach the sources
# through the resilient source client — until its circuit breaker trips,
# and require the incident pipeline to hold up end to end:
#
#   1. at least one diagnostic bundle is dumped (breaker-open trigger);
#   2. webiq-flight inspect renders it as an incident report;
#   3. the bundle's wide events account for every 5xx and shed the
#      admission/metrics layers counted;
#   4. a p99 trace exemplar from /stats resolves via /trace/{id}.
set -eu

GO=${GO:-go}
ADDR=${ADDR:-127.0.0.1:8095}
# When OUT is set, the produced bundles and the rendered incident report
# are copied there before cleanup (CI uploads them as an artifact).
OUT=${OUT:-}
DIR=$(mktemp -d)
BUNDLES="$DIR/bundles"
SERVE_PID=""

cleanup() {
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

echo "==> building webiq-serve and webiq-flight"
$GO build -o "$DIR/webiq-serve" ./cmd/webiq-serve
$GO build -o "$DIR/webiq-flight" ./cmd/webiq-flight

echo "==> booting webiq-serve with p30 chaos + flight recorder"
mkdir -p "$BUNDLES"
"$DIR/webiq-serve" -addr "$ADDR" \
	-faults p30 -fault-seed 7 \
	-max-inflight 2 -queue 2 \
	-flight-dir "$BUNDLES" -flight-triggers 'breaker,debounce=1s' \
	-flight-window 10m \
	>"$DIR/serve.log" 2>&1 &
SERVE_PID=$!

i=0
while ! curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "FAIL: /healthz not answering after 10s" >&2
		cat "$DIR/serve.log" >&2
		exit 1
	fi
	if ! kill -0 "$SERVE_PID" 2>/dev/null; then
		echo "FAIL: webiq-serve exited" >&2
		cat "$DIR/serve.log" >&2
		exit 1
	fi
	sleep 0.1
done

echo "==> collecting probe and fan-out requests"
ROUNDS=60
# Probes of every source and fan-outs over every unified attribute with
# instances (its first instance as the value), for two domains. A
# round is 16 requests, 4 probes and 12 fan-outs, widest fan-outs
# first: with only two requests admitted at a time, fan-outs carry most
# of the probe traffic the breaker needs to see.
curl -fsS "http://$ADDR/sources" >"$DIR/sources.json"
for d in airfare book; do
	curl -fsS "http://$ADDR/unified/$d/explain" >"$DIR/explain-$d.json"
done
python3 - "$DIR" "$ROUNDS" >"$DIR/requests.txt" <<'EOF'
import itertools, json, sys, urllib.parse

d, ROUNDS = sys.argv[1], int(sys.argv[2])
domains = ("airfare", "book")
probes = [f"/source/{s['id']}/search?f0=Boston"
          for s in json.load(open(f"{d}/sources.json")) if s["domain"] in domains]
fanouts = []
for dom in domains:
    for a in json.load(open(f"{d}/explain-{dom}.json"))["attributes"]:
        if a["instances"]:
            q = urllib.parse.urlencode({"attr": a["label"], "value": a["instances"][0]["value"]})
            fanouts.append((-len(a["members"]), f"/unified/{dom}/search?{q}"))
fanouts = [path for _, path in sorted(fanouts)]
probes, fanouts = itertools.cycle(probes), itertools.cycle(fanouts)
for _ in range(ROUNDS):
    for path in itertools.islice(probes, 4):
        print(path)
    for path in itertools.islice(fanouts, 12):
        print(path)
EOF

echo "==> driving concurrent chaos traffic"
round=0
while [ "$round" -lt "$ROUNDS" ]; do
	round=$((round + 1))
	# Collect the curl PIDs explicitly: a bare `wait` would also wait
	# for the backgrounded server, which never exits. Globbing is off
	# while the request paths (which contain '?') are word-split.
	PIDS=""
	set -f
	for path in $(sed -n "$(((round - 1) * 16 + 1)),$((round * 16))p" "$DIR/requests.txt"); do
		curl -s -m 30 -o /dev/null "http://$ADDR$path" &
		PIDS="$PIDS $!"
	done
	set +f
	wait $PIDS || true
	# Stop as soon as a bundle landed.
	if ls "$BUNDLES"/flight-*.json >/dev/null 2>&1; then
		break
	fi
	sleep 0.3
done
sleep 1

echo "==> checking a bundle was produced"
BUNDLE=$(ls "$BUNDLES"/flight-*.json 2>/dev/null | head -n 1 || true)
if [ -z "$BUNDLE" ]; then
	echo "FAIL: no diagnostic bundle after $round rounds of chaos traffic" >&2
	curl -s "http://$ADDR/debug/flight" >&2 || true
	exit 1
fi
echo "bundle: $BUNDLE"
case "$BUNDLE" in
*breaker-open*) echo "breaker-open trigger confirmed" ;;
*) echo "note: bundle reason is $(basename "$BUNDLE") (breaker-only triggers were configured)" ;;
esac

echo "==> webiq-flight inspect renders the incident report"
"$DIR/webiq-flight" inspect -extract "$DIR/profs" "$BUNDLE" >"$DIR/report.txt"
grep -q '== Incident bundle:' "$DIR/report.txt" || {
	echo "FAIL: inspect did not render a report" >&2
	exit 1
}
grep -q -- '-- Runtime' "$DIR/report.txt" || {
	echo "FAIL: report has no runtime section" >&2
	exit 1
}
sed -n '1,14p' "$DIR/report.txt"

echo "==> wide events account for every 5xx and shed"
curl -fsS "http://$ADDR/debug/flight/snapshot" >/dev/null
LATEST=$(ls -t "$BUNDLES"/flight-*.json | head -n 1)
python3 - "$LATEST" "http://$ADDR" <<'EOF'
import json, sys, urllib.request

bundle = json.load(open(sys.argv[1]))
base = sys.argv[2]
metrics = urllib.request.urlopen(base + "/metrics").read().decode()

def counter_sum(name):
    total = 0.0
    for line in metrics.splitlines():
        if line.startswith(name):
            total += float(line.rsplit(" ", 1)[1])
    return int(total)

events = bundle.get("wide_events") or []
ev_5xx = sum(1 for e in events if e.get("status", 0) >= 500)
ev_shed = sum(1 for e in events if e.get("shed_reason"))
m_5xx = sum(
    int(float(l.rsplit(" ", 1)[1]))
    for l in metrics.splitlines()
    if l.startswith("webiq_http_requests_total") and 'class="5xx"' in l
)
m_shed = counter_sum("webiq_admission_shed_total")

# The bundle window covers the whole run (shed requests are never
# counted by route, so 5xx counters exclude them).
if ev_shed != m_shed:
    sys.exit(f"FAIL: bundle has {ev_shed} shed events, admission counted {m_shed}")
if ev_5xx != m_5xx + m_shed:
    sys.exit(f"FAIL: bundle has {ev_5xx} 5xx events, metrics counted {m_5xx} 5xx + {m_shed} sheds")
print(f"accounted: {ev_5xx} 5xx wide events = {m_5xx} measured 5xx + {m_shed} sheds")
EOF

echo "==> p99 trace exemplar resolves via /trace/{id}"
TRACE=$(curl -fsS "http://$ADDR/stats" | python3 -c '
import json, sys
routes = json.load(sys.stdin)["routes"]
print(routes.get("unified", {}).get("p99_trace_id", ""))
')
if [ -z "$TRACE" ]; then
	echo "FAIL: /stats has no p99 trace exemplar for route unified" >&2
	exit 1
fi
curl -fsS "http://$ADDR/trace/$TRACE" >/dev/null || {
	echo "FAIL: exemplar trace $TRACE not resolvable via /trace/" >&2
	exit 1
}
echo "exemplar trace $TRACE resolved"

if [ -n "$OUT" ]; then
	mkdir -p "$OUT"
	cp "$BUNDLES"/flight-*.json "$DIR/report.txt" "$OUT/"
	echo "kept bundles + report in $OUT"
fi

echo "PASS: flight recorder produced an inspectable, accounted bundle"
