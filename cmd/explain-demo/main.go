// Command explain-demo is the provenance smoke test behind
// `make explain-demo`: it boots the HTTP server in-process on a
// loopback port (building the world, acquisition and matching included,
// at startup), requests /unified/{domain}/explain, and asserts that the
// provenance payload is non-empty, that every unified-interface
// instance is attributed to a component with numeric evidence, and that
// the request's own trace resolves via /trace/{id}. It exits non-zero
// on any gap, printing what was missing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"webiq/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("explain-demo: ")

	domain := flag.String("domain", "book", "domain to build and explain")
	seed := flag.Int64("seed", 1, "random seed for all generators")
	flag.Parse()

	start := time.Now()
	srv, err := server.New(*seed)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := http.Serve(ln, srv); err != nil {
			log.Print(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	log.Printf("server up on %s in %v", base, time.Since(start).Round(time.Millisecond))

	resp, err := http.Get(base + "/unified/" + *domain + "/explain")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET /unified/%s/explain: status %d", *domain, resp.StatusCode)
	}
	traceHeader := resp.Header.Get("X-Trace-ID")
	var payload server.ExplainPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		log.Fatal(err)
	}

	if len(payload.Attributes) == 0 {
		log.Fatal("empty provenance payload: no attributes explained")
	}
	if payload.Instances == 0 {
		log.Fatal("empty provenance payload: no instances explained")
	}
	if payload.Attributed != payload.Instances {
		for _, ea := range payload.Attributes {
			for _, inst := range ea.Instances {
				if inst.Verdict == "unattributed" {
					log.Printf("unattributed: %q (attr %s, from %s)", inst.Value, ea.Label, inst.SourceAttr)
				}
			}
		}
		log.Fatalf("provenance incomplete: %d of %d instances attributed", payload.Attributed, payload.Instances)
	}
	if traceHeader == "" {
		log.Fatal("explain response carries no X-Trace-ID header")
	}

	// The request's trace must be resolvable to a span tree.
	tresp, err := http.Get(base + "/trace/" + traceHeader)
	if err != nil {
		log.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		log.Fatalf("GET /trace/%s: status %d", traceHeader, tresp.StatusCode)
	}

	fmt.Printf("OK: %d attributes, %d/%d instances attributed; request trace %s\n",
		len(payload.Attributes), payload.Attributed, payload.Instances, traceHeader)
}
