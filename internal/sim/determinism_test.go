package sim

import (
	"reflect"
	"testing"

	"ptile360/internal/headtrace"
	"ptile360/internal/power"
	"ptile360/internal/video"
)

// buildCatalogWithWorkers rebuilds the fixture's catalogue with the given
// worker count from identical inputs.
func buildCatalogWithWorkers(t *testing.T, workers int) *Catalog {
	t.Helper()
	p, err := video.ProfileByID(2)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = 16
	ds, err := headtrace.Generate(p, gcfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := ds.SplitTrainEval(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	ccfg, err := DefaultCatalogConfig()
	if err != nil {
		t.Fatal(err)
	}
	ccfg.Workers = workers
	cat, err := BuildCatalog(p, train, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestBuildCatalogWorkersDeterministic proves the parallel per-segment
// construction is bit-identical to the serial loop: every segment is an
// independent seeded computation writing only its own slots, so the worker
// count must not change a single byte of the catalogue.
func TestBuildCatalogWorkersDeterministic(t *testing.T) {
	serial := buildCatalogWithWorkers(t, 1)
	for _, workers := range []int{0, 4, 16} {
		par := buildCatalogWithWorkers(t, workers)
		if !reflect.DeepEqual(serial.Content, par.Content) {
			t.Fatalf("workers=%d: content series differ", workers)
		}
		if !reflect.DeepEqual(serial.Ptiles, par.Ptiles) {
			t.Fatalf("workers=%d: Ptile catalogues differ", workers)
		}
		if !reflect.DeepEqual(serial.Ftiles, par.Ftiles) {
			t.Fatalf("workers=%d: Ftile groupings differ", workers)
		}
		if !reflect.DeepEqual(serial.Coverage, par.Coverage) {
			t.Fatalf("workers=%d: coverage series differ", workers)
		}
	}
}

// TestSessionPlanTablesBitIdentical proves the precomputed size tables are a
// pure memoization: for every scheme, on both fixtures, a session planned
// from the tables returns byte-for-byte the same Result as the direct
// per-call computation path (the serial reference).
func TestSessionPlanTablesBitIdentical(t *testing.T) {
	forEachFixture(t, func(t *testing.T, fx *testFixture) {
		for _, scheme := range Schemes() {
			cfg, err := DefaultConfig(scheme, power.Nexus5X)
			if err != nil {
				t.Fatal(err)
			}
			cfg.RecordSegments = true
			user := fx.eval[0]

			disablePlanTables = true
			ref, refErr := Run(fx.cat, user, fx.trace, cfg)
			disablePlanTables = false
			if refErr != nil {
				t.Fatalf("%v: reference run: %v", scheme, refErr)
			}

			got, err := Run(fx.cat, user, fx.trace, cfg)
			if err != nil {
				t.Fatalf("%v: table run: %v", scheme, err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%v: table-planned session differs from direct-computation reference:\nref: %+v\ngot: %+v",
					scheme, ref, got)
			}
		}
	})
}

// TestPlanTablesSingleflight checks that repeated sessions with the same
// configuration share one table build per catalogue fingerprint.
func TestPlanTablesSingleflight(t *testing.T) {
	cat := buildCatalogWithWorkers(t, 1)
	cfgOurs, err := DefaultConfig(SchemeOurs, power.Nexus5X)
	if err != nil {
		t.Fatal(err)
	}
	cfgCtile, err := DefaultConfig(SchemeCtile, power.Nexus5X)
	if err != nil {
		t.Fatal(err)
	}
	t1a, err := cat.tablesFor(&cfgOurs)
	if err != nil {
		t.Fatal(err)
	}
	t1b, err := cat.tablesFor(&cfgOurs)
	if err != nil {
		t.Fatal(err)
	}
	if t1a != t1b {
		t.Fatal("same fingerprint built twice")
	}
	// Ctile uses a single source frame rate, so its ladder fingerprint
	// differs from Ours and must map to its own table.
	t2, err := cat.tablesFor(&cfgCtile)
	if err != nil {
		t.Fatal(err)
	}
	if t2 == t1a {
		t.Fatal("distinct fingerprints shared one table")
	}
}
