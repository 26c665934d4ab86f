// checkmetrics is the docs-freshness gate for the observability layer,
// run by scripts/ci.sh as `go run ./scripts/checkmetrics` from the repo
// root. It holds docs/OBSERVABILITY.md to internal/obs.Catalog in both
// directions:
//
//   - every cataloged metric must appear backticked in the handbook;
//   - every backticked snake_case token in the handbook must be a cataloged
//     metric (or a known non-metric field), so renamed or deleted metrics
//     cannot leave stale documentation behind.
//
// The sharded-plane handbook (docs/SHARDING.md) is held to the catalog the
// same way: every `shard_*` metric must appear backticked there (the
// operator doc owns those metrics' runbook meaning), and every backticked
// snake_case token in it must be a cataloged metric — so the runbook
// cannot reference a metric that was renamed away.
//
// The flight-recorder schema gets the same two-way treatment against
// internal/obs.RecordCatalog: every record type must appear backticked in
// the handbook's "## Flight recorder" section, and every hyphenated
// backticked token in that section must be a cataloged record type (or a
// known tool name). Record field names are fed from the catalog into the
// allowed snake_case set, so the docs table cannot drift from the schema.
package main

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"plos/internal/obs"
)

const docPath = "docs/OBSERVABILITY.md"

// tickToken matches inline-code snake_case identifiers: lowercase
// alphanumerics with at least one underscore-separated segment. Paths,
// flags, Go identifiers and prose never match; metric names always do.
var tickToken = regexp.MustCompile("`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)`")

// hyphenToken is the record-name analogue: lowercase alphanumerics with at
// least one hyphen-separated segment, alone inside backticks.
var hyphenToken = regexp.MustCompile("`([a-z][a-z0-9]*(?:-[a-z0-9]+)+)`")

// notMetrics are backticked snake_case tokens the handbook legitimately
// uses that are not metric names (JSON keys). Flight record fields are added
// from obs.RecordCatalog in main.
var notMetrics = map[string]bool{
	// /debug/trace snapshot keys.
	"flight_recorded": true,
	"flight_tail":     true,
}

// notRecords are backticked hyphenated tokens the flight-recorder section
// legitimately uses that are not record types (tool names).
var notRecords = map[string]bool{
	"plos-trace":  true,
	"plos-server": true,
}

// flightSection extracts the "## Flight recorder" section (up to the next
// top-level heading) so the record-name reverse check covers only the tokens
// written there.
func flightSection(doc string) string {
	const heading = "## Flight recorder"
	start := strings.Index(doc, heading)
	if start < 0 {
		return ""
	}
	rest := doc[start+len(heading):]
	if end := strings.Index(rest, "\n## "); end >= 0 {
		rest = rest[:end]
	}
	return rest
}

func main() {
	raw, err := os.ReadFile(docPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkmetrics: %v (run from the repo root)\n", err)
		os.Exit(1)
	}
	doc := string(raw)

	fail := false
	catalog := make(map[string]bool, len(obs.Catalog))
	for _, d := range obs.Catalog {
		catalog[d.Name] = true
		if !strings.Contains(doc, "`"+d.Name+"`") {
			fmt.Fprintf(os.Stderr,
				"checkmetrics: metric %q (%s) is registered but missing from %s\n",
				d.Name, d.Help, docPath)
			fail = true
		}
	}

	// Flight-recorder schema: forward check against the record catalog, and
	// its field names become allowed snake_case tokens.
	flight := flightSection(doc)
	if flight == "" {
		fmt.Fprintf(os.Stderr, "checkmetrics: %s has no \"## Flight recorder\" section\n", docPath)
		fail = true
	}
	records := make(map[string]bool, len(obs.RecordCatalog))
	for _, d := range obs.RecordCatalog {
		records[d.Name] = true
		for _, f := range d.Fields {
			notMetrics[f] = true
		}
		if !strings.Contains(flight, "`"+d.Name+"`") {
			fmt.Fprintf(os.Stderr,
				"checkmetrics: flight record %q (%s) is in obs.RecordCatalog but missing from the flight-recorder section of %s\n",
				d.Name, d.Help, docPath)
			fail = true
		}
	}

	stale := map[string]bool{}
	for _, m := range tickToken.FindAllStringSubmatch(doc, -1) {
		if name := m[1]; !catalog[name] && !notMetrics[name] {
			stale[name] = true
		}
	}
	for _, m := range hyphenToken.FindAllStringSubmatch(flight, -1) {
		if name := m[1]; !records[name] && !notRecords[name] {
			stale[name] = true
		}
	}
	names := make([]string, 0, len(stale))
	for n := range stale {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr,
			"checkmetrics: %s documents %q, which is not in the obs catalogs (stale or typo)\n",
			docPath, n)
		fail = true
	}

	// The sharding handbook: forward-require the shard_* metrics, reverse-
	// check every snake_case token it uses.
	const shardDocPath = "docs/SHARDING.md"
	shardRaw, err := os.ReadFile(shardDocPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkmetrics: %v (run from the repo root)\n", err)
		os.Exit(1)
	}
	shardDoc := string(shardRaw)
	for _, d := range obs.Catalog {
		if strings.HasPrefix(d.Name, "shard_") && !strings.Contains(shardDoc, "`"+d.Name+"`") {
			fmt.Fprintf(os.Stderr,
				"checkmetrics: shard metric %q (%s) is registered but missing from %s\n",
				d.Name, d.Help, shardDocPath)
			fail = true
		}
	}
	shardStale := map[string]bool{}
	for _, m := range tickToken.FindAllStringSubmatch(shardDoc, -1) {
		if name := m[1]; !catalog[name] && !notMetrics[name] {
			shardStale[name] = true
		}
	}
	for _, n := range sortedKeys(shardStale) {
		fmt.Fprintf(os.Stderr,
			"checkmetrics: %s documents %q, which is not in the obs catalog (stale or typo)\n",
			shardDocPath, n)
		fail = true
	}

	if fail {
		os.Exit(1)
	}
	fmt.Printf("checkmetrics: %d metrics and %d flight records documented, %s and %s in sync with the catalogs\n",
		len(obs.Catalog), len(obs.RecordCatalog), docPath, shardDocPath)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
