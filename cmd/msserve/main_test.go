package main

import (
	"strings"
	"testing"
)

// TestEagerIndexUsageNamesTopology: -eager-index's help text says it
// cannot be combined with -topology, which the DB rejects at open.
func TestEagerIndexUsageNamesTopology(t *testing.T) {
	if !strings.Contains(eagerUsage, "cannot be combined with -topology") {
		t.Fatalf("-eager-index help %q does not say it cannot be combined with -topology", eagerUsage)
	}
}
