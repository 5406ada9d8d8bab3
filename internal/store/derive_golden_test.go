package store_test

import (
	"context"
	"flag"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lcakp/internal/core"
	"lcakp/internal/oracle"
	"lcakp/internal/repro"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

var updateDeriveGolden = flag.Bool("update-derive-golden", false, "rewrite testdata/derive.golden from the current derivation")

// TestDeriveGolden pins the canonical (materialization-stream) rule
// derivation bit for bit: every estimator, three epsilons and two
// seeds on the instance core's derivation benchmarks use (zipf,
// n=10k, workload seed 42). Each line records the
// EPS thresholds as float64 bits, ESmall, the sorted large set and the
// CRC-64 of the materialized artifact bytes. Any change to how the
// estimators read the EPS sample — sorting, ordering, validation —
// that moves a single bit of a rule or artifact fails here.
func TestDeriveGolden(t *testing.T) {
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: 10_000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatal(err)
	}
	// The artifact's own trailer is a CRC-64/ECMA of the bytes before
	// it, so an ECMA checksum over the whole artifact is the constant
	// CRC residue; fingerprint with the ISO polynomial instead.
	table := crc64.MakeTable(crc64.ISO)

	var b strings.Builder
	for _, eps := range []float64{0.1, 0.2, 0.3} {
		tau := eps / 5
		ests := []repro.Estimator{
			repro.Trie{Tau: tau},
			repro.Naive{},
			repro.Snap{Tau: tau},
			repro.Iterated{Tau: tau},
			repro.PaddedMedian{Tau: tau},
		}
		for _, est := range ests {
			for _, seed := range []uint64{7, 8} {
				lca, err := core.NewLCAKP(acc, core.Params{Epsilon: eps, Seed: seed, Estimator: est})
				if err != nil {
					t.Fatal(err)
				}
				rule, err := store.MaterializeRule(context.Background(), lca)
				if err != nil {
					t.Fatalf("%s eps=%v seed=%d: %v", est.Name(), eps, seed, err)
				}
				art, err := store.Materialize(context.Background(), acc, rule, 1, seed)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s eps=%v seed=%d thresholds=[", est.Name(), eps, seed)
				for k, v := range rule.Thresholds {
					if k > 0 {
						b.WriteByte(' ')
					}
					fmt.Fprintf(&b, "%016x", math.Float64bits(v))
				}
				fmt.Fprintf(&b, "] esmall=%016x singleton=%t large=%v crc64=%016x\n",
					math.Float64bits(rule.ESmall), rule.Singleton, rule.LargeIndices(),
					crc64.Checksum(art.Bytes(), table))
			}
		}
	}

	path := filepath.Join("testdata", "derive.golden")
	if *updateDeriveGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-derive-golden): %v", err)
	}
	gotLines := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, derivation produced %d", len(wantLines), len(gotLines))
	}
	for k := range wantLines {
		if gotLines[k] != wantLines[k] {
			t.Errorf("line %d differs:\n got  %s\n want %s", k+1, gotLines[k], wantLines[k])
		}
	}
}
