// Command webiq-snapshot builds, verifies, and inspects binary world
// snapshots — the checksummed files webiq-serve boots from instead of
// running the pipeline at startup.
//
//	webiq-snapshot build  -o world.snap -seed 1 -scale 1
//	webiq-snapshot verify world.snap
//	webiq-snapshot info   world.snap -json
//
// build runs the full pipeline offline (corpus, datasets, deep-web
// pools, acquisition, matching, unification for every domain) and
// writes the result atomically; the corpus itself is not stored.
// verify re-validates every checksum and cross-section invariant and
// prints what it found; info prints the header and section table
// without touching the bulk payloads. verify and info exit nonzero on
// any corruption, and take -json on either side of the path.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"webiq/internal/snapshot"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  webiq-snapshot build  -o <path> [-seed N] [-scale X] [-json]
  webiq-snapshot verify <path> [-json]
  webiq-snapshot info   <path> [-json]
`)
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("webiq-snapshot: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		runBuild(os.Args[2:])
	case "verify":
		runVerify(os.Args[2:])
	case "info":
		runInfo(os.Args[2:])
	default:
		usage()
	}
}

func runBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("o", "world.snap", "output path (written atomically via rename)")
	seed := fs.Int64("seed", 1, "random seed for all generators")
	scale := fs.Float64("scale", 1, "corpus size multiplier (1 = webiq-serve's size)")
	asJSON := fs.Bool("json", false, "print the build summary as JSON")
	fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}

	start := time.Now()
	w, err := snapshot.BuildWorld(snapshot.BuildConfig{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	built := time.Since(start)
	if err := w.Write(*out); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		printJSON(map[string]any{
			"path": *out, "bytes": st.Size(), "build_seconds": built.Seconds(), "meta": w.Meta,
		})
		return
	}
	log.Printf("built world in %v: %d decisions across %d domains",
		built.Round(time.Millisecond), w.Meta.Decisions, len(w.Meta.Domains))
	log.Printf("wrote %s (%d bytes)", *out, st.Size())
}

func runVerify(args []string) {
	path, asJSON, err := pathArg("verify", args)
	if err != nil {
		usage()
	}
	start := time.Now()
	info, err := snapshot.Verify(path)
	if err != nil {
		log.Fatal(err)
	}
	if asJSON {
		printJSON(info)
		return
	}
	log.Printf("%s: OK in %v (every checksum and invariant verified)", path, time.Since(start).Round(time.Millisecond))
	printInfo(info)
}

func runInfo(args []string) {
	path, asJSON, err := pathArg("info", args)
	if err != nil {
		usage()
	}
	info, err := snapshot.Info(path)
	if err != nil {
		log.Fatal(err)
	}
	if asJSON {
		printJSON(info)
		return
	}
	printInfo(info)
}

// pathArg parses "<cmd> <path>" with -json on either side of the path.
// The flag package stops at the first non-flag, so each positional
// argument is taken off and the rest parsed again.
func pathArg(cmd string, args []string) (string, bool, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print as JSON")
	var paths []string
	for {
		if err := fs.Parse(args); err != nil {
			return "", false, err
		}
		if fs.NArg() == 0 {
			break
		}
		paths = append(paths, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(paths) != 1 {
		return "", false, errors.New("want exactly one snapshot path")
	}
	return paths[0], *asJSON, nil
}

func printInfo(info *snapshot.FileInfo) {
	m := info.Meta
	fmt.Printf("snapshot   %s (%d bytes, format v%d, fingerprint %#016x)\n",
		info.Path, info.Size, info.FormatVersion, info.Fingerprint)
	fmt.Printf("built with %s, seed %d, scale %g\n", m.GoVersion, m.Seed, m.Scale)
	fmt.Printf("contents   %d decisions, %d domains\n", m.Decisions, len(m.Domains))
	fmt.Printf("%-20s %12s %12s  %s\n", "section", "offset", "bytes", "crc64")
	for _, s := range info.Sections {
		fmt.Printf("%-20s %12d %12d  %016x\n", s.Name, s.Off, s.Len, s.CRC)
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}
