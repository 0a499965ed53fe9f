package main

import (
	"testing"

	"masksearch"
)

// workloadInputs hashes everything every workload would hand the
// program for one seed.
func workloadInputs(seed int64) string {
	spec := masksearch.TinyDataset()
	h := newOpHasher()
	h.ops(newGen(seed, "explore", spec).exploreOps(200, exploreFilter, exploreTopK))
	h.ops(newGen(seed, "dist", spec).exploreOps(200, distFilter, distTopK))
	g := newGen(seed, "session", spec)
	for range 4 {
		for _, b := range g.session() {
			h.ops(b)
		}
	}
	g = newGen(seed, "serve", spec)
	h.ops(g.serveOps(200, g.serveShapes()))
	h.appends(newGen(seed, "ingest", spec).appendBatches(3))
	return h.sum()
}

func TestSeedFixesOpList(t *testing.T) {
	a, b, c := workloadInputs(7), workloadInputs(7), workloadInputs(8)
	if a != b {
		t.Errorf("seed 7 gave two op lists: %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same op list %s", a)
	}
}

func TestExploreStatementsAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, o := range newGen(1, "explore", masksearch.TinyDataset()).exploreOps(2000, exploreFilter, exploreTopK) {
		if seen[o.SQL] {
			t.Fatalf("statement emitted twice: %s", o.SQL)
		}
		seen[o.SQL] = true
	}
}

func TestEveryStatementPrepares(t *testing.T) {
	spec := masksearch.TinyDataset()
	dir := t.TempDir()
	if err := masksearch.GenerateDataset(dir, spec); err != nil {
		t.Fatal(err)
	}
	db, err := masksearch.OpenWith(dir, masksearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var ops []op
	ops = append(ops, newGen(3, "explore", spec).exploreOps(300, exploreFilter, exploreTopK)...)
	ops = append(ops, newGen(3, "dist", spec).exploreOps(300, distFilter, distTopK)...)
	g := newGen(3, "session", spec)
	for range 10 {
		for _, b := range g.session() {
			ops = append(ops, b...)
		}
	}
	g = newGen(3, "serve", spec)
	ops = append(ops, g.serveOps(300, g.serveShapes())...)
	for _, o := range ops {
		stmt, err := db.Prepare(o.SQL)
		if err != nil {
			t.Fatalf("%s: %v", o.SQL, err)
		}
		if err := stmt.Check(o.Args...); err != nil {
			t.Fatalf("%s with %v: %v", o.SQL, o.Args, err)
		}
	}
}
