#!/usr/bin/env sh
# Replica gate: every webiq-serve node holds the whole world, so
# replicas booted from one snapshot share nothing and must behave alike.
# Three steps:
#
#   1. boot 3 nodes from one snapshot; every node returns the same
#      status, Content-Type and body on /, /sources, and, for every
#      domain, a /source/{ifc} form and search plus /unified/{d},
#      /unified/{d}/explain and /unified/{d}/search;
#   2. run one webiq-loadgen per node and SIGKILL the third node
#      mid-run: each survivor's run must pass its objectives (non-503
#      error rate within 1%, p99 within 3s, every domain servable),
#      and the victim's run must fail, which proves the kill landed;
#   3. SIGTERM each survivor: each must exit with status 0 inside its
#      -drain window.
#
# Set OUT=dir to keep the loadgen summaries and the node logs (CI
# uploads them).
set -eu

GO=${GO:-go}
HOST=127.0.0.1
P1=${P1:-8181}
P2=${P2:-8182}
P3=${P3:-8183}
OUT=${OUT:-}
DURATION=10s
RPS=40
DRAIN=5
DIR=$(mktemp -d)
PIDS=""

cleanup() {
	for pid in $PIDS; do
		kill -KILL "$pid" 2>/dev/null || true
	done
	rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

keep() {
	if [ -n "$OUT" ]; then
		mkdir -p "$OUT"
		cp "$DIR"/loadgen-*.json "$DIR"/*.log "$OUT/" 2>/dev/null || true
	fi
}

echo "==> building webiq-serve, webiq-snapshot, webiq-loadgen"
$GO build -o "$DIR/webiq-serve" ./cmd/webiq-serve
$GO build -o "$DIR/webiq-snapshot" ./cmd/webiq-snapshot
$GO build -o "$DIR/webiq-loadgen" ./cmd/webiq-loadgen

echo "==> building the shared world snapshot"
"$DIR/webiq-snapshot" build -o "$DIR/world.snap" >/dev/null

echo "==> booting 3 replicas from it"
for n in 1 2 3; do
	eval port=\$P$n
	"$DIR/webiq-serve" -addr "$HOST:$port" -snapshot "$DIR/world.snap" \
		-drain "${DRAIN}s" >"$DIR/serve-n$n.log" 2>&1 &
	eval PID$n=$!
	PIDS="$PIDS $!"
done
for port in "$P1" "$P2" "$P3"; do
	i=0
	while ! curl -fsS "http://$HOST:$port/readyz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -ge 150 ]; then
			echo "FAIL: node on :$port not ready after 15s" >&2
			cat "$DIR"/serve-*.log >&2
			exit 1
		fi
		sleep 0.1
	done
done
echo "all replicas ready"

echo "==> step 1: every route answers byte-identically on every replica"
BASE1="http://$HOST:$P1"
curl -fsS "$BASE1/sources" >"$DIR/sources.json"
for d in airfare auto book job realestate; do
	curl -fsS "$BASE1/unified/$d/explain" >"$DIR/explain-$d.json"
done
# Per domain: its first source's form, a probe of that source, and a
# fan-out over the widest unified attribute with instances, its first
# instance as the value (the probe uses the same value).
python3 - "$DIR" >"$DIR/routes.txt" <<'EOF'
import json, sys, urllib.parse

d = sys.argv[1]
sources = json.load(open(f"{d}/sources.json"))
print("/")
print("/sources")
for dom in ("airfare", "auto", "book", "job", "realestate"):
    attrs = [a for a in json.load(open(f"{d}/explain-{dom}.json"))["attributes"] if a["instances"]]
    widest = max(attrs, key=lambda a: len(a["members"]))
    value = widest["instances"][0]["value"]
    ifc = next(s["id"] for s in sources if s["domain"] == dom)
    print(f"/source/{ifc}")
    print(f"/source/{ifc}/search?" + urllib.parse.urlencode({"f0": value}))
    print(f"/unified/{dom}")
    print(f"/unified/{dom}/explain")
    print(f"/unified/{dom}/search?" + urllib.parse.urlencode({"attr": widest["label"], "value": value}))
EOF
checked=0
while read -r path; do
	for n in 1 2 3; do
		eval port=\$P$n
		curl -sS -o "$DIR/body.$n" -w '%{http_code} %{content_type}\n' \
			"http://$HOST:$port$path" >"$DIR/head.$n"
	done
	for n in 2 3; do
		if ! cmp -s "$DIR/head.1" "$DIR/head.$n" || ! cmp -s "$DIR/body.1" "$DIR/body.$n"; then
			echo "FAIL: $path differs between n1 and n$n" >&2
			echo "n1: $(cat "$DIR/head.1")  n$n: $(cat "$DIR/head.$n")" >&2
			exit 1
		fi
	done
	checked=$((checked + 1))
done <"$DIR/routes.txt"
echo "$checked routes identical on all 3 replicas"

echo "==> step 2: $DURATION of load per replica, SIGKILL n3 mid-run"
for n in 1 2 3; do
	eval port=\$P$n
	"$DIR/webiq-loadgen" -targets "http://$HOST:$port" \
		-rps "$RPS" -duration "$DURATION" \
		-p99 3s -max-error-rate 0.01 \
		-json "$DIR/loadgen-n$n.json" >"$DIR/loadgen-n$n.log" 2>&1 &
	eval LOAD$n=$!
	PIDS="$PIDS $!"
done
sleep 3
kill -KILL "$PID3"
wait "$PID3" 2>/dev/null || true
echo "killed n3 (pid $PID3)"
for n in 1 2; do
	eval pid=\$LOAD$n
	if ! wait "$pid"; then
		echo "FAIL: survivor n$n's loadgen objectives violated" >&2
		cat "$DIR/loadgen-n$n.log" "$DIR/loadgen-n$n.json" >&2 || true
		keep
		exit 1
	fi
	tail -n 1 "$DIR/loadgen-n$n.log"
done
if wait "$LOAD3"; then
	echo "FAIL: the victim's loadgen passed; the kill did not land" >&2
	cat "$DIR/loadgen-n3.log" >&2
	keep
	exit 1
fi
echo "victim's run failed as it must: $(tail -n 1 "$DIR/loadgen-n3.log")"

echo "==> step 3: SIGTERM each survivor, exit 0 inside -drain ${DRAIN}s"
for n in 1 2; do
	eval pid=\$PID$n
	kill -TERM "$pid"
	# A watchdog kills the node if it outlives the drain window, which
	# turns its exit status into a failure.
	(sleep "$((DRAIN + 1))" && kill -KILL "$pid" 2>/dev/null) &
	dog=$!
	if wait "$pid"; then status=0; else status=$?; fi
	kill "$dog" 2>/dev/null || true
	if [ "$status" -ne 0 ]; then
		echo "FAIL: n$n exited with status $status after SIGTERM" >&2
		cat "$DIR/serve-n$n.log" >&2
		keep
		exit 1
	fi
	echo "n$n: $(tail -n 1 "$DIR/serve-n$n.log")"
done

keep
echo "PASS: 3 replicas answered alike, survivors held their objectives with n3 killed, and drained cleanly"
