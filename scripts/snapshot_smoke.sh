#!/usr/bin/env sh
# End-to-end cold-start smoke test: build a world snapshot, verify it,
# boot webiq-serve from it, and require the instant-readiness contract —
# /readyz answers 200 with every domain ready before any other request,
# and /unified/{domain} renders for each domain.
set -eu

GO=${GO:-go}
ADDR=${ADDR:-127.0.0.1:8094}
DIR=$(mktemp -d)
SNAP="$DIR/world.snap"
SERVE_PID=""

cleanup() {
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

echo "==> building snapshot"
$GO run ./cmd/webiq-snapshot build -o "$SNAP" -seed 1 -scale 1

echo "==> verifying snapshot"
$GO run ./cmd/webiq-snapshot verify "$SNAP"

echo "==> booting webiq-serve -snapshot"
$GO build -o "$DIR/webiq-serve" ./cmd/webiq-serve
"$DIR/webiq-serve" -addr "$ADDR" -snapshot "$SNAP" &
SERVE_PID=$!

# The server must come up ready almost immediately: poll briefly for the
# listener, then demand 200 on the first real /readyz answer.
i=0
while ! curl -fsS "http://$ADDR/readyz" >"$DIR/readyz.json" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -ge 50 ]; then
		echo "FAIL: /readyz not answering 200 after 5s" >&2
		exit 1
	fi
	if ! kill -0 "$SERVE_PID" 2>/dev/null; then
		echo "FAIL: webiq-serve exited" >&2
		exit 1
	fi
	sleep 0.1
done
cat "$DIR/readyz.json"
echo
# The response is pretty-printed; compact it before matching.
READYZ=$(tr -d ' \n\t' <"$DIR/readyz.json")
case "$READYZ" in
*'"ready":true'*) ;;
*)
	echo "FAIL: /readyz answered but not ready" >&2
	exit 1
	;;
esac

for dom in $(printf '%s' "$READYZ" | sed -e 's/.*"domains":{//' -e 's/}.*//' |
	tr ',' '\n' | cut -d'"' -f2); do
	echo "==> GET /unified/$dom"
	curl -fsS -o "$DIR/unified.html" "http://$ADDR/unified/$dom"
	grep -qi '<form' "$DIR/unified.html" || {
		echo "FAIL: /unified/$dom did not render a form" >&2
		exit 1
	}
done

echo "PASS: snapshot boot ready with all domains rendered"
